"""Bit-exact functional model of the digital in-memory-compute tile.

A compute is a full-row dot product between the input buffer and one
selected weight row, accumulated into the signed 24-bit partial sum; the
tile's shape, the accumulator and the precision modes are in ``geometry``.

Bit order is little-endian throughout: byte 0 of a row holds bits [0, 8),
and element k of a 1024-bit vector occupies bits [k*w, (k+1)*w) for
element width w. Decoded element arrays therefore line up index-for-index
with the flattened tensors the layer mapper packs.
"""

from __future__ import annotations

import numpy as np

from .geometry import (ROW_BITS, ROWS, SECTOR_BYTES, SECTORS, SLICES_PER_SECTOR,
                       PrecisionMode, QuantConfig, wrap_partial)


def _decode_table(bits: int, signed: bool) -> np.ndarray:
    """The 8 // bits elements of each byte value, as one int8 each, packed
    little-endian into one unsigned integer of 8 // bits bytes per byte
    value. Built in plain Python, so importing the module runs no ufunc."""
    mask = (1 << bits) - 1
    # each field value as the byte of its int8 element
    elements = [(f - (mask + 1)) & 0xFF if signed and f >> (bits - 1) else f
                for f in range(mask + 1)]
    table = bytes(elements[byte >> shift & mask]
                  for byte in range(256) for shift in range(0, 8, bits))
    return np.frombuffer(table, dtype=f"<u{8 // bits}")


_DECODE_TABLES = {(bits, signed): _decode_table(bits, signed)
                  for bits in (1, 2, 4) for signed in (False, True)}


def decode_elements(data, bits: int, signed: bool) -> np.ndarray:
    """Unpack a little-endian bit vector into an int8 element array.

    ``data`` is a bytes-like vector or a uint8 array whose last axis holds
    the bytes; leading axes are kept. Elements span at most [-8, 15], and
    one byte each keeps a batch of decoded rows small. Each byte is looked
    up in a 256-entry table whose entry holds that byte's elements, and
    the looked-up entries are read back as their int8 bytes.
    """
    if bits not in (1, 2, 4):
        raise ValueError(f"cannot decode {bits}-bit elements")
    raw = data if isinstance(data, np.ndarray) else np.frombuffer(bytes(data), dtype=np.uint8)
    return _DECODE_TABLES[bits, signed].take(raw).view(np.int8)


def pack_elements(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack an integer element array into little-endian bytes (two's
    complement within each element field). Inverse of decode_elements."""
    if bits not in (1, 2, 4):
        raise ValueError(f"cannot pack {bits}-bit elements")
    per_byte = 8 // bits
    # the cast to uint8 keeps each element's low eight bits, two's
    # complement included, without a wider temporary
    u = np.asarray(values).reshape(-1).astype(np.uint8) & ((1 << bits) - 1)
    if u.size % per_byte:
        u = np.concatenate([u, np.zeros(per_byte - u.size % per_byte, dtype=np.uint8)])
    if bits == 1:
        return np.packbits(u, bitorder="little")
    out = np.zeros(u.size // per_byte, dtype=np.uint8)
    for j in range(per_byte):
        out |= u[j::per_byte] << (bits * j)
    return out


def writable(target: np.ndarray, shape) -> np.ndarray:
    """``target`` broadcast to ``shape``, as an array that may be written in
    place: ``target`` itself when it already is one, else a copy."""
    if target.shape == shape and target.flags.writeable:
        return target
    return np.broadcast_to(target, shape).copy()


class DimcTile:
    """One compute tile at one precision: weight memory, input buffer, and
    the row MAC. Building one for a width it cannot run raises ValueError.

    Buffer and rows hold the elements a compute multiplies, one int8 each:
    a load decodes its payload at the tile's precision, and the readback
    packs the elements into bytes again. Loads mutate the tile in place;
    computes change no result; they fill a cache that every load drops.
    A tile starts with every element zero, which the layer mapper relies
    on for sectors it leaves untouched.

    The state may carry leading batch axes, one per loop the simulator
    runs as a batch: ``push_axis`` adds one of size 1 and ``pop_axis``
    keeps its last entry. Load payloads, incoming partials and compute
    results broadcast against them, so a row that does not vary along an
    axis is stored once for all of it.

    The first compute after a load or an axis change casts the buffer to
    float32 once. Where the buffer is the larger operand and the rows do
    not vary along the innermost batch axis, it also multiplies the buffer
    with all 32 rows in one matmul, and each compute reads one column of
    it; otherwise each compute takes its own row's dot with the cast
    buffer.
    """

    def __init__(self, mode: PrecisionMode):
        if not mode.dimc_supported:
            raise ValueError(f"the tile runs 1-, 2- or 4-bit elements, got {mode.bits}-bit")
        self.mode = mode
        elements = ROW_BITS // mode.bits
        self._memory = np.zeros((ROWS, elements), dtype=np.int8)
        self._input = np.zeros(elements, dtype=np.int8)
        self._drop_products()

    def _drop_products(self) -> None:
        # the float32 buffer, and its dots with all rows (or None)
        self._cast = self._products = None

    # -- batch axes --------------------------------------------------------

    def push_axis(self) -> None:
        """Add an innermost batch axis of size 1 to the whole state."""
        self._input = np.expand_dims(self._input, -2)
        self._memory = np.expand_dims(self._memory, -3)
        self._drop_products()

    def pop_axis(self) -> None:
        """Drop the innermost batch axis, keeping its last entry."""
        self._input = self._input[..., -1, :]
        self._memory = self._memory[..., -1, :, :]
        self._drop_products()

    # -- loads ------------------------------------------------------------

    def load_input_sector(self, sector: int, data, valid_mask: int) -> None:
        """Replace mask-selected 64-bit slices of one 256-bit input sector.

        Slice i of the sector is overwritten by bytes [8*i, 8*i+8) of
        ``data`` iff bit i of ``valid_mask`` is set; masked-out slices and
        all other sectors keep their previous contents.
        """
        self._check_sector(sector)
        elements = self._payload(data, self.mode.input_signed)
        mask = self._check_mask(valid_mask)
        self._input = writable(self._input, np.broadcast_shapes(
            self._input.shape, elements.shape[:-1] + self._input.shape[-1:]))
        self._masked_write(self._input, sector, elements, mask)
        self._drop_products()

    def load_memory_row(self, row: int, sector: int, data, valid_mask: int) -> None:
        """Same slice/mask semantics as load_input_sector, applied to the
        256-bit window ``sector`` of weight row ``row``."""
        self._check_row(row)
        self._check_sector(sector)
        elements = self._payload(data, self.mode.weight_signed)
        mask = self._check_mask(valid_mask)
        self._memory = writable(self._memory, np.broadcast_shapes(
            self._memory.shape, elements.shape[:-1] + self._memory.shape[-2:]))
        self._masked_write(self._memory[..., row, :], sector, elements, mask)
        self._drop_products()

    # -- computes ---------------------------------------------------------

    def compute_row(self, row: int, incoming=0):
        """Dot product of the input buffer with weight row ``row`` plus the
        incoming partial, wrapped into the 24-bit accumulator range.

        The whole 1024-bit row participates: elements the mapper never
        loaded stay zero and contribute nothing. No result changes: the
        call only fills the cache of the buffer state's products.
        Over batch axes (or an int64 array of incoming partials) the
        result is an int64 array; otherwise it is one integer.
        """
        self._check_row(row)
        # float32 sums integers exactly while every partial sum stays below
        # 2**24, in any order; a row's |dot| is at most 1024 * 1 (1-bit),
        # 512 * 9 (2-bit) or 256 * 225 = 57,600 (4-bit)
        if self._cast is None:
            self._cast = self._input.astype(np.float32)
            memory = self._memory
            if memory.ndim > 2 and memory.shape[-3] == 1 and self._input.size > memory.size:
                self._products = np.matmul(
                    self._cast, np.swapaxes(memory[..., 0, :, :], -1, -2).astype(np.float32))
        if self._products is not None:
            dot = self._products[..., row]
        else:
            dot = np.vecdot(self._cast, self._memory[..., row, :].astype(np.float32))
        return wrap_partial(dot.astype(np.int64) + incoming)

    def compute_row_final(self, row: int, incoming, quant: QuantConfig):
        """compute_row followed by ReLU, right shift and saturation.

        Returns the quantized value as an unsigned nibble in [0, 15].
        """
        p = self.compute_row(row, incoming)
        return np.minimum(np.maximum(p, 0) >> quant.right_shift, quant.max_value)

    # -- readback ---------------------------------------------------------

    def memory_row(self, row: int) -> bytes:
        self._check_row(row)
        return pack_elements(self._memory[..., row, :], self.mode.bits).tobytes()

    def input_buffer(self) -> bytes:
        return pack_elements(self._input, self.mode.bits).tobytes()

    # -- internals --------------------------------------------------------

    @staticmethod
    def _masked_write(target: np.ndarray, sector: int, elements: np.ndarray, mask: int) -> None:
        per_slice = elements.shape[-1] // SLICES_PER_SECTOR
        offset = sector * elements.shape[-1]
        for i in range(SLICES_PER_SECTOR):
            if mask >> i & 1:
                lo = i * per_slice
                target[..., offset + lo:offset + lo + per_slice] = elements[..., lo:lo + per_slice]

    @staticmethod
    def _check_row(row: int) -> None:
        if not 0 <= row < ROWS:
            raise ValueError(f"row {row} out of range [0, {ROWS - 1}]")

    @staticmethod
    def _check_sector(sector: int) -> None:
        if not 0 <= sector < SECTORS:
            raise ValueError(f"sector {sector} out of range [0, {SECTORS - 1}]")

    @staticmethod
    def _check_mask(mask: int) -> int:
        if not 0 <= mask <= 0xF:
            raise ValueError(f"valid mask {mask} out of range [0, 15]")
        return mask

    def _payload(self, data, signed: bool) -> np.ndarray:
        """The elements of a sector payload: bytes, or a uint8 array with
        the bytes on its last axis."""
        buf = data if isinstance(data, np.ndarray) else np.frombuffer(bytes(data), dtype=np.uint8)
        size = buf.shape[-1] if buf.ndim else 0
        if size != SECTOR_BYTES:
            raise ValueError(f"sector payload must be {SECTOR_BYTES} bytes, got {size}")
        return decode_elements(buf, self.mode.bits, signed)
