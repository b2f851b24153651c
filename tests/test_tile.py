import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimcsim.geometry import ROW_BITS, ROW_BYTES, PrecisionMode, QuantConfig, wrap_partial
from dimcsim.tile import DimcTile, decode_elements, pack_elements


def sector(pattern):
    """32-byte payload from four 8-byte slice fills."""
    return b"".join(bytes([p]) * 8 for p in pattern)


def test_full_mask_overwrites_sector():
    tile = DimcTile(PrecisionMode(4))
    tile.load_input_sector(0, b"\xff" * 32, 0b1111)
    buf = tile.input_buffer()
    assert buf[:32] == b"\xff" * 32
    assert buf[32:] == bytes(96)


def test_empty_mask_is_identity():
    tile = DimcTile(PrecisionMode(4))
    tile.load_input_sector(1, sector([1, 2, 3, 4]), 0b1111)
    before = tile.input_buffer()
    tile.load_input_sector(3, b"\xaa" * 32, 0b0000)
    assert tile.input_buffer() == before


def test_slice_mask_selects_slices():
    # mask 0b0101 writes slices 0 and 2 of sector 1, slices 1 and 3 keep
    # their previous contents
    tile = DimcTile(PrecisionMode(4))
    tile.load_input_sector(1, sector([9, 9, 9, 9]), 0b1111)
    tile.load_input_sector(1, sector([0xA, 0xB, 0xC, 0xD]), 0b0101)
    buf = tile.input_buffer()
    assert buf[32:64] == sector([0xA, 9, 0xC, 9])
    assert buf[:32] == bytes(32) and buf[64:] == bytes(64)


def test_row_load_isolated_to_row():
    tile = DimcTile(PrecisionMode(4))
    tile.load_memory_row(31, 0, b"\x55" * 32, 0b1111)
    assert tile.memory_row(31)[:32] == b"\x55" * 32
    for r in range(31):
        assert tile.memory_row(r) == bytes(ROW_BYTES)


def test_two_sector_loads_concatenate():
    tile = DimcTile(PrecisionMode(4))
    lo, hi = bytes(range(32)), bytes(range(32, 64))
    tile.load_memory_row(5, 0, lo, 0b1111)
    tile.load_memory_row(5, 1, hi, 0b1111)
    assert tile.memory_row(5)[:64] == lo + hi


def test_loads_idempotent():
    tile = DimcTile(PrecisionMode(4))
    tile.load_memory_row(3, 2, sector([7, 0, 7, 0]), 0b1001)
    snap = tile.memory_row(3)
    tile.load_memory_row(3, 2, sector([7, 0, 7, 0]), 0b1001)
    assert tile.memory_row(3) == snap


@pytest.mark.parametrize("call, args", [
    ("load_input_sector", (4, bytes(32), 0b1111)),
    ("load_memory_row", (32, 0, bytes(32), 0b1111)),
    ("load_memory_row", (0, -1, bytes(32), 0b1111)),
    ("load_input_sector", (0, bytes(31), 0b1111)),
    ("load_input_sector", (0, bytes(32), 16)),
])
def test_load_range_errors(call, args):
    with pytest.raises(ValueError):
        getattr(DimcTile(PrecisionMode(4)), call)(*args)


def test_compute_zero_buffer_passes_incoming_through():
    tile = DimcTile(PrecisionMode(4))
    tile.load_memory_row(4, 0, b"\xff" * 32, 0b1111)
    assert tile.compute_row(4, incoming=5) == 5


def test_compute_single_element_identity():
    tile = DimcTile(PrecisionMode(4))
    tile.load_input_sector(0, b"\x01" + bytes(31), 0b1111)
    tile.load_memory_row(0, 0, b"\x01" + bytes(31), 0b1111)
    assert tile.compute_row(0) == 1


def _random_elements(mode, rng):
    """Random input and weight element vectors at the mode's precision."""
    n = ROW_BITS // mode.bits
    lo, hi = mode.input_range()
    x = rng.integers(lo, hi + 1, n)
    lo, hi = mode.weight_range()
    return x, rng.integers(lo, hi + 1, n)


def _fill(tile, rng, elements=None):
    """Load input and row 0 with ``elements`` (random when None); returns
    the element vectors."""
    x, w = _random_elements(tile.mode, rng) if elements is None else elements
    for s in range(4):
        tile.load_input_sector(s, _sector_bytes(x, tile.mode.bits, s), 0b1111)
        tile.load_memory_row(0, s, _sector_bytes(w, tile.mode.bits, s), 0b1111)
    return x, w


def _sector_bytes(elements, bits, s):
    return pack_elements(elements, bits)[32 * s:32 * (s + 1)]


def _largest_product(mode):
    """The input and weight element whose product has the largest |value|."""
    return max(itertools.product(mode.input_range(), mode.weight_range()),
               key=lambda pair: abs(pair[0] * pair[1]))


def _want(x, w, incoming):
    """Plain python dot with unbounded ints, reduced at the end."""
    return wrap_partial(sum(int(a) * int(b) for a, b in zip(x, w)) + incoming)


@pytest.mark.parametrize("bits", [1, 2, 4])
@pytest.mark.parametrize("in_signed", [False, True])
@pytest.mark.parametrize("w_signed", [False, True])
def test_compute_matches_bruteforce_dot(bits, in_signed, w_signed):
    rng = np.random.default_rng(bits * 100 + in_signed * 10 + w_signed)
    mode = PrecisionMode(bits, in_signed, w_signed)
    n = ROW_BITS // bits
    # every element the one of largest |product| is the tightest point of the
    # bound that keeps the MAC exact (256 * 15 * 15 at 4-bit unsigned)
    x_big, w_big = _largest_product(mode)
    worst = (np.full(n, x_big), np.full(n, w_big))
    for trial in range(11):
        tile = DimcTile(mode)
        x, w = _fill(tile, rng, worst if trial == 10 else None)
        incoming = int(rng.integers(-(1 << 23), 1 << 23))
        assert tile.compute_row(0, incoming) == _want(x, w, incoming)
    # one compute over two leading batch axes: two input buffers against
    # three rows, the worst-case vectors first on each axis
    xs = [worst[0], _random_elements(mode, rng)[0]]
    ws = [worst[1]] + [_random_elements(mode, rng)[1] for _ in range(2)]
    incoming = rng.integers(-(1 << 23), 1 << 23, (2, 3))
    tile = DimcTile(mode)
    tile.push_axis()
    tile.push_axis()
    for s in range(4):
        tile.load_input_sector(s, np.stack([_sector_bytes(x, bits, s) for x in xs])[:, None], 0b1111)
        tile.load_memory_row(0, s, np.stack([_sector_bytes(w, bits, s) for w in ws]), 0b1111)
    got = tile.compute_row(0, incoming)
    assert got.shape == (2, 3)
    for i, x in enumerate(xs):
        for j, w in enumerate(ws):
            assert got[i, j] == _want(x, w, int(incoming[i, j]))


def test_incoming_offset_is_modular():
    rng = np.random.default_rng(11)
    tile = DimcTile(PrecisionMode(4))
    _fill(tile, rng)
    base = tile.compute_row(0, 0)
    for a in (1, -1, 12345, PARTIAL := (1 << 23) - 1, -PARTIAL):
        assert tile.compute_row(0, a) == wrap_partial(base + a)


def test_accumulator_wraps_not_saturates():
    tile = DimcTile(PrecisionMode(4))
    tile.load_input_sector(0, b"\x01" + bytes(31), 0b1111)
    tile.load_memory_row(0, 0, b"\x01" + bytes(31), 0b1111)
    # 1*1 on top of the most positive partial wraps to the most negative
    assert tile.compute_row(0, (1 << 23) - 1) == -(1 << 23)


def test_one_bit_signed_decodes_to_minus_one():
    assert list(decode_elements(b"\x03", 1, True)[:3]) == [-1, -1, 0]
    assert list(decode_elements(b"\x03", 1, False)[:3]) == [1, 1, 0]


@pytest.mark.parametrize("bits", [1, 2, 4])
@pytest.mark.parametrize("signed", [False, True])
def test_decode_every_byte_value(bits, signed):
    # element k of a byte is bits [k*bits, (k+1)*bits), sign-extended when
    # signed; all 256 byte values, as bytes and as a batch of uint8 rows
    mask, top = (1 << bits) - 1, 1 << (bits - 1)
    want = [(b >> k & mask) - (2 * top if signed and b >> k & top else 0)
            for b in range(256) for k in range(0, 8, bits)]
    flat = decode_elements(bytes(range(256)), bits, signed)
    assert flat.dtype == np.int8 and flat.tolist() == want
    rows = np.arange(256, dtype=np.uint8).reshape(4, 2, 32)[1:]
    batched = decode_elements(rows, bits, signed)
    per_byte = 8 // bits
    assert batched.dtype == np.int8 and batched.shape == (3, 2, 32 * per_byte)
    assert batched.reshape(-1).tolist() == want[64 * per_byte:]


def test_decode_rejects_a_width_the_tile_cannot_run():
    with pytest.raises(ValueError, match="8-bit"):
        decode_elements(b"\x00", 8, True)


def test_compute_does_not_mutate_state():
    rng = np.random.default_rng(5)
    tile = DimcTile(PrecisionMode(2))
    _fill(tile, rng)
    mem, buf = tile.memory_row(0), tile.input_buffer()
    tile.compute_row(0, 7)
    tile.compute_row_final(0, 7, QuantConfig(2, 4))
    assert tile.memory_row(0) == mem and tile.input_buffer() == buf


def test_final_relu_clamps_negative():
    tile = DimcTile(PrecisionMode(4))  # empty row: partial == incoming
    assert tile.compute_row_final(0, -100, QuantConfig(0, 4)) == 0


def test_final_shift_then_saturate():
    tile = DimcTile(PrecisionMode(4))
    assert tile.compute_row_final(0, 57, QuantConfig(3, 4)) == 7
    assert tile.compute_row_final(0, 4000, QuantConfig(4, 4)) == 15


@pytest.mark.parametrize("out_bits", [1, 2, 4])
def test_final_range(out_bits):
    rng = np.random.default_rng(out_bits)
    tile = DimcTile(PrecisionMode(4))
    _fill(tile, rng)
    for _ in range(50):
        q = QuantConfig(int(rng.integers(0, 8)), out_bits)
        incoming = int(rng.integers(-(1 << 23), 1 << 23))
        v = tile.compute_row_final(0, incoming, q)
        assert 0 <= v <= (1 << out_bits) - 1 <= 15


def test_mode_validation():
    with pytest.raises(ValueError):
        PrecisionMode(3)
    assert not PrecisionMode(8).dimc_supported
    for bits in (8, 16):
        with pytest.raises(ValueError, match=f"{bits}-bit"):
            DimcTile(PrecisionMode(bits))


def test_pack_decode_roundtrip():
    rng = np.random.default_rng(2)
    for bits in (1, 2, 4):
        for signed in (False, True):
            lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
            vals = rng.integers(lo, hi + 1, 1024 // bits)
            packed = pack_elements(vals, bits)
            assert np.array_equal(decode_elements(packed.tobytes(), bits, signed), vals)


@pytest.mark.parametrize("bits", [1, 2, 4])
@pytest.mark.parametrize("in_signed", [False, True])
@pytest.mark.parametrize("w_signed", [False, True])
@pytest.mark.parametrize("batch", [None, 3])
def test_readback_returns_the_loaded_bytes(bits, in_signed, w_signed, batch):
    # the tile stores elements; readback must pack them into exactly the
    # bytes the mask let through, whatever the signedness
    rng = np.random.default_rng(bits * 100 + in_signed * 10 + w_signed)
    tile = DimcTile(PrecisionMode(bits, in_signed, w_signed))
    lead = () if batch is None else (batch,)
    if batch is not None:
        tile.push_axis()
    want_input = np.zeros(lead + (ROW_BYTES,), dtype=np.uint8)
    want_row = np.zeros(lead + (ROW_BYTES,), dtype=np.uint8)
    for sec, mask in ((0, 0b1111), (1, 0b0101), (3, 0b1000), (1, 0b0010)):
        payload = rng.integers(0, 256, lead + (32,), dtype=np.uint8)
        tile.load_input_sector(sec, payload if batch else payload.tobytes(), mask)
        tile.load_memory_row(7, sec, payload[..., ::-1].copy(), mask)
        for i in range(4):
            if mask >> i & 1:
                lo = 32 * sec + 8 * i
                want_input[..., lo:lo + 8] = payload[..., 8 * i:8 * i + 8]
                want_row[..., lo:lo + 8] = payload[..., ::-1][..., 8 * i:8 * i + 8]
    assert tile.input_buffer() == want_input.tobytes()
    assert tile.memory_row(7) == want_row.tobytes()
    assert tile.memory_row(6) == bytes(ROW_BYTES * (batch or 1))
    if batch is not None:
        tile.pop_axis()
        assert tile.input_buffer() == want_input[-1].tobytes()
        assert tile.memory_row(7) == want_row[-1].tobytes()


def test_batch_axis_matches_one_tile_per_entry():
    # three tiles' worth of weight rows under one batch axis, sharing one
    # input sector through broadcasting
    rng = np.random.default_rng(8)
    mode, quant = PrecisionMode(2, True, False), QuantConfig(3, 2)
    rows = rng.integers(0, 256, (3, 32), dtype=np.uint8)
    sector_bytes = rng.integers(0, 256, 32, dtype=np.uint8)
    incoming = rng.integers(-(1 << 23), 1 << 23, 3)
    batched = DimcTile(mode)
    batched.push_axis()
    batched.load_input_sector(2, sector_bytes, 0b1111)
    batched.load_memory_row(5, 2, rows, 0b1011)
    partials = batched.compute_row(5, incoming)
    finals = batched.compute_row_final(5, incoming, quant)
    for n in range(3):
        one = DimcTile(mode)
        one.load_input_sector(2, sector_bytes.tobytes(), 0b1111)
        one.load_memory_row(5, 2, rows[n].tobytes(), 0b1011)
        assert partials[n] == one.compute_row(5, int(incoming[n]))
        assert finals[n] == one.compute_row_final(5, int(incoming[n]), quant)
    batched.pop_axis()
    assert batched.memory_row(5) == one.memory_row(5)
    assert batched.input_buffer() == one.input_buffer()


class _Reference:
    """The tile without any cache: int64 state, a product per compute."""

    def __init__(self, mode):
        self.mode = mode
        self.input = np.zeros(ROW_BITS // mode.bits, dtype=np.int64)
        self.memory = np.zeros((32, ROW_BITS // mode.bits), dtype=np.int64)

    def push_axis(self):
        self.input, self.memory = self.input[..., None, :], self.memory[..., None, :, :]

    def pop_axis(self):
        self.input, self.memory = self.input[..., -1, :], self.memory[..., -1, :, :]

    @staticmethod
    def _written(target, sector, elements, mask):
        lead = np.broadcast_shapes(target.shape[:-1], elements.shape[:-1])
        target = np.broadcast_to(target, lead + target.shape[-1:]).copy()
        per_slice = elements.shape[-1] // 4
        for i in range(4):
            if mask >> i & 1:
                lo = sector * elements.shape[-1] + i * per_slice
                target[..., lo:lo + per_slice] = elements[..., i * per_slice:(i + 1) * per_slice]
        return target

    def load_input_sector(self, sector, data, mask):
        elements = decode_elements(data, self.mode.bits, self.mode.input_signed)
        self.input = self._written(self.input, sector, elements, mask)

    def load_memory_row(self, row, sector, data, mask):
        elements = decode_elements(data, self.mode.bits, self.mode.weight_signed)
        rows = np.moveaxis(self.memory, -2, 0)
        rows = np.broadcast_to(rows, rows.shape[:1] + np.broadcast_shapes(
            rows.shape[1:-1], elements.shape[:-1]) + rows.shape[-1:]).copy()
        rows[row] = self._written(rows[row], sector, elements, mask)
        self.memory = np.moveaxis(rows, 0, -2)

    def compute_row(self, row, incoming):
        return wrap_partial((self.input * self.memory[..., row, :]).sum(-1) + incoming)


# leading payload axes (outer, inner) of input sectors and weight rows for
# the shapes the verify layers batch: one tile, the buffer batched over
# positions (conv2_1_a), and the weights batched over kernel groups on the
# outer axis with many positions (conv4_2_a) or one (fc1000)
_BATCHES = {"unbatched": ((), ()), "buffer": ((1, 70), (2, 1)),
            "weights": ((1, 5), (3, 1)), "weights-one-position": ((1, 1), (4, 1))}

_tile_ops = st.lists(st.one_of(
    st.tuples(st.just("input"), st.integers(0, 3), st.integers(0, 15), st.booleans()),
    st.tuples(st.just("row"), st.integers(0, 3), st.integers(0, 3), st.integers(0, 15),
              st.booleans()),
    st.tuples(st.just("compute"), st.integers(0, 3), st.integers(-(1 << 23), 1 << 23)),
    st.tuples(st.just("final"), st.integers(0, 3), st.integers(-(1 << 23), 1 << 23),
              st.integers(0, 6)),
    st.tuples(st.just("push")), st.tuples(st.just("pop"))), min_size=4, max_size=30)


@pytest.mark.parametrize("batch", list(_BATCHES), ids=list(_BATCHES))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=_tile_ops, seed=st.integers(0, 2**16), mode=st.sampled_from(
    [PrecisionMode(4), PrecisionMode(2, True, False), PrecisionMode(1, False, True)]))
def test_interleaved_loads_axes_and_computes_match_a_tile_without_cache(batch, ops, seed, mode):
    # every load and axis change between two computes must drop what the
    # first one cached: a stale product would differ from the reference.
    # The tile starts at the batch's depth with its buffer and rows 0-3
    # filled; an axis pushed past that depth takes payloads of size 1.
    rng = np.random.default_rng(seed)
    tile, ref = DimcTile(mode), _Reference(mode)
    leads = _BATCHES[batch]
    top = len(leads[0])
    depth = 0

    def load(kind, *args, batched=True):
        lead = (leads[kind == "row"] + (1,))[:depth] if batched else ()
        data = rng.integers(0, 256, lead + (32,), dtype=np.uint8)
        name = "load_input_sector" if kind == "input" else "load_memory_row"
        getattr(tile, name)(*args[:-1], data if lead else data.tobytes(), args[-1])
        getattr(ref, name)(*args[:-1], data, args[-1])

    def change_axis(kind):
        nonlocal depth
        getattr(tile, kind + "_axis")()
        getattr(ref, kind + "_axis")()
        depth += 1 if kind == "push" else -1

    for _ in range(top):
        change_axis("push")
    for sec in range(4):
        load("input", sec, 0b1111)
        for row in range(4):
            load("row", row, sec, 0b1111)
    for kind, *args in ops:
        if kind in ("input", "row"):
            load(kind, *args[:-1], batched=args[-1])
        elif kind == "compute":
            got, want = tile.compute_row(*args), ref.compute_row(*args)
            assert np.shape(got) == want.shape and np.array_equal(got, want)
        elif kind == "final":
            row, incoming, shift = args
            got = tile.compute_row_final(row, incoming, QuantConfig(shift, 4))
            want = np.minimum(np.maximum(ref.compute_row(row, incoming), 0) >> shift, 15)
            assert np.shape(got) == want.shape and np.array_equal(got, want)
        elif kind == "push" and depth <= top:
            change_axis("push")
        elif kind == "pop" and depth:
            change_axis("pop")


def test_buffer_larger_than_shared_rows_takes_one_product_per_buffer_state():
    # conv2_1_a's shapes: a buffer batched over 70 positions against two
    # kernel groups' rows that do not vary over positions. The first compute
    # multiplies the buffer with all rows; each load and axis change drops
    # the product. Every element is the one of largest |product|, the
    # tightest point of the bound that keeps the float32 product exact.
    mode = PrecisionMode(4, False, False)
    x_big, w_big = _largest_product(mode)
    tile = DimcTile(mode)
    tile.push_axis()
    tile.push_axis()
    elements = ROW_BITS // mode.bits
    x_sector = pack_elements(np.full(elements // 4, x_big), mode.bits)
    w_sector = pack_elements(np.full(elements // 4, w_big), mode.bits)
    changes = [lambda: tile.load_memory_row(9, 3, np.tile(w_sector, (2, 1, 1)), 0b1111),
               lambda: tile.load_input_sector(3, np.tile(x_sector, (1, 70, 1)), 0b1111),
               tile.pop_axis, tile.push_axis]
    for s in range(4):
        tile.load_input_sector(s, np.tile(x_sector, (1, 70, 1)), 0b1111)
        tile.load_memory_row(9, s, np.tile(w_sector, (2, 1, 1)), 0b1111)
    for change in changes:
        assert tile._products is None
        want = wrap_partial(elements * x_big * w_big + 5)
        got = tile.compute_row(9, 5)
        if tile._input.ndim == 3:
            assert tile._products is not None
            assert got.shape == (2, 70)
        assert np.all(got == want)
        assert np.all(tile.compute_row(8, 5) == 5)
        change()
        assert tile._cast is None and tile._products is None
