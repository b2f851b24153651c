"""The data half of the simulator: architectural state evolved in program
order, for runs given a memory image. ``sim.execute`` imports it only for
such runs, so a timing-only run loads no numpy.

Registers, external memory and the tile all exchange little-endian bytes,
laid out as ``sim`` describes. The data half keeps each register as its
own 8-byte array, so that inside a batch one register can vary along an
iteration axis while another does not.

Batched loops
-------------
The data half runs a Repeat as one batch when a static pass over its body
(``_Body``) shows that no iteration reads state another one writes: every
register byte, input-buffer slice or weight-row slice the body reads is
written earlier in the same iteration or nowhere in the body, and the body
does not open with a dc.f. Address intervals over every iteration must also
show its memory accesses all in bounds, no load touching a stored byte and
no two stores overlapping. The state then gains an iteration axis: vloads
and vstores become gathers and scatters at ``addr + offset + n * stride``,
the tile loads and computes run on arrays, and the state after the Repeat is
the last iteration's. State a body leaves alone keeps an axis of size 1, so
a position loop nested in a batched group loop reads each group's weight
rows without copying them. A body that fails either check, as does one whose
stores interleave across iterations without overlapping, is walked iteration
by iteration through the same code, where an out-of-bounds access raises
with the pc the unrolled program would report.

A Repeat that advances weight rows is always walked, since its iterations
write different rows and a batch keeps only the last iteration's; the walk
adds the loop's row offset to each ``m_row``. In the body around it, such a
loop reads and writes the rows of all its iterations, so a group loop whose
prologue loads its kernels row by row still runs as one batch.
"""

from __future__ import annotations

import math
from operator import add

import numpy as np

from .geometry import ROW_BYTES, SECTOR_BYTES, SLICE_BYTES, SLICES_PER_SECTOR
from .isa import DcF, DcP, DlI, DlM
from .sim import (NUM_REGIONS, NUM_VREGS, Barrier, Program, Repeat, SimulationError, VClear,
                  VLoad, VStore)
from .tile import DimcTile, writable

# Data resources as bits of one int: register-file bytes 0..255, then the
# sixteen 64-bit slices of the input buffer, then sixteen per weight row.
_ROW_SLICES = ROW_BYTES // SLICE_BYTES
_INPUT_BIT = 8 * NUM_VREGS
_ROW_BIT = _INPUT_BIT + _ROW_SLICES
_ROW_MASK = (1 << _ROW_SLICES) - 1
_BYTE_OFFSETS = np.arange(8)


def _bytes(lo: int, n: int) -> int:
    return ((1 << n) - 1) << lo


def _advanced(resources: int, node: Repeat) -> int:
    """The resources of every iteration of a row loop whose first iteration
    has ``resources``: iteration n moves the weight-row bits n * rows rows up."""
    rows = resources >> _ROW_BIT
    spread = 0
    for n in range(node.count):
        spread |= rows << (_ROW_SLICES * node.rows * n)
    return resources & ((1 << _ROW_BIT) - 1) | spread << _ROW_BIT


def _data_effects(ins) -> tuple:
    """(resources read, resources written) of a valid instruction.

    A dc.f that completes a byte also reads it, but only right after the
    dc.f that opened the byte, so within the same pass of a body (a batched
    body never starts with a dc.f); that read is left out.
    """
    cls = ins.__class__
    if cls is VLoad or cls is VClear:
        return 0, _bytes(8 * ins.vd, 8)
    if cls is VStore:
        return _bytes(8 * ins.vs1, 8), 0
    if cls is DlI or cls is DlM:
        mask = ins.mask & ((1 << ins.nvec) - 1)
        reads = 0
        for i in range(ins.nvec):
            if mask >> i & 1:
                reads |= _bytes(8 * (ins.vs1 + i), 8)
        base = _INPUT_BIT if cls is DlI else _ROW_BIT + _ROW_SLICES * ins.m_row
        return reads, mask << (base + SLICES_PER_SECTOR * ins.sec)
    reads = (_bytes(8 * ins.vs1 + 4 * ins.sh, 3) | _ROW_MASK << _INPUT_BIT
             | _ROW_MASK << (_ROW_BIT + _ROW_SLICES * ins.m_row))
    dst = 8 * ins.vd + 4 * ins.dh
    return reads, (_bytes(dst, 4) if cls is DcP else _bytes(dst + ins.bidx, 1))


class _Body:
    """What the data half knows about one body before running it.

    One pass reads the resources in ``exposed`` before writing them and
    writes those in ``written``; a Repeat(0) in it does neither.
    ``accesses`` groups the vloads and vstores by the loops that enclose
    them inside the body: it maps (is_store, region, ((count, stride), ...))
    to their ``addr`` values in ascending order. Their addresses are affine
    in those loops' indices, so ``_commutes`` takes a group's address
    interval from its extreme ``addr`` values and the loops' extremes.
    ``first`` is the class of the first instruction or barrier one pass
    executes. The body's passes are ``independent`` when no pass reads what
    another writes: nothing it reads before writing is written at all, and
    it does not open with a dc.f (whose packing would depend on the
    previous pass).
    """

    def __init__(self, nodes, analyze):
        self.accesses: dict = {}
        self.exposed = self.written = 0
        self.first = None
        for node in nodes:
            cls = node.__class__
            if cls is Repeat:
                if not node.count:
                    continue
                inner = analyze(node.body)
                for (store, region, loops), addrs in inner.accesses.items():
                    loops = ((node.count, node.strides[region]),) + loops
                    self.accesses.setdefault((store, region, loops), []).extend(addrs)
                reads, writes = inner.exposed, inner.written
                if node.rows:
                    reads, writes = _advanced(reads, node), _advanced(writes, node)
                cls = inner.first
            elif cls is Barrier:
                reads = writes = 0
            else:
                reads, writes = _data_effects(node)
                if cls is VLoad or cls is VStore:
                    self.accesses.setdefault((cls is VStore, node.region, ()), []).append(node.addr)
            if self.first is None:
                self.first = cls
            self.exposed |= reads & ~self.written
            self.written |= writes
        for addrs in self.accesses.values():
            addrs.sort()
        self.independent = not self.exposed & self.written and self.first is not DcF


class _Machine:
    """The data half: architectural state evolved in program order.

    Registers are 32 uint8 arrays of 8 bytes; the tile, built for the
    program's precision mode, holds its own. Inside a Repeat run as a batch
    each array gains one leading axis per batched loop, of the loop's count
    or of 1 where the state does not vary along it, and the address offsets
    become arrays over the same axes.
    """

    def __init__(self, program: Program, memory: bytearray):
        self.quant = program.quant
        self.mem = np.frombuffer(memory, dtype=np.uint8)
        self.regs = list(np.zeros((NUM_VREGS, 8), dtype=np.uint8))
        self.tile = DimcTile(program.mode)
        # per-region address offset of the current iteration(s), and the
        # weight-row offset of the current iteration
        self.offsets = [0] * NUM_REGIONS
        self.row = 0
        # number of batched loops the walk is inside
        self.depth = 0
        self.pc = 0
        # dc.f write-back packer: register-file byte the previous
        # instruction, a dc.f, left half filled, or None
        self.open_byte = None
        self._bodies: dict = {}

    @property
    def vrf(self) -> bytearray:
        """The register file as 8 * NUM_VREGS bytes (outside any batch)."""
        return bytearray(b"".join(r.tobytes() for r in self.regs))

    def analyze(self, nodes) -> _Body:
        body = self._bodies.get(id(nodes))
        if body is None:
            body = self._bodies[id(nodes)] = _Body(nodes, self.analyze)
        return body

    def run_nodes(self, nodes) -> None:
        for node in nodes:
            if node.__class__ is not Repeat:
                self.step(node)
            elif node.count:
                self._repeat(node)

    # -- loops -------------------------------------------------------------

    def _repeat(self, node: Repeat) -> None:
        body = self.analyze(node.body)
        # the iterations of a row loop write different rows, and a batch
        # would keep only the last one's
        if not node.rows and body.independent and (self.depth or self._commutes(node, body)):
            # the batch walks one pass; the unrolled program walks count
            pc = self.pc
            self._run_batched(node)
            self.pc = pc + node.count * (self.pc - pc)
        else:
            saved, row = self.offsets, self.row
            for _ in range(node.count):
                self.run_nodes(node.body)
                self.offsets = list(map(add, self.offsets, node.strides))
                self.row += node.rows
            self.offsets, self.row = saved, row

    def _run_batched(self, node: Repeat) -> None:
        """All iterations as one pass over a new innermost batch axis; the
        state after it is the last iteration's."""
        saved = self.offsets
        steps = np.arange(node.count)
        # a region the loop does not advance keeps an axis of size 1
        self.offsets = [np.expand_dims(offset, -1) + (steps * stride if stride else 0)
                        for offset, stride in zip(saved, node.strides)]
        self.regs = [np.expand_dims(r, -2) for r in self.regs]
        self.tile.push_axis()
        self.depth += 1
        self.run_nodes(node.body)
        self.depth -= 1
        self.tile.pop_axis()
        self.regs = [r[..., -1, :] for r in self.regs]
        self.offsets = saved

    def _commutes(self, node: Repeat, body: _Body) -> bool:
        """Whether address intervals show that the loop's memory accesses
        allow any iteration order: all in bounds, no load touching a stored
        byte, no two stores overlapping, over every iteration of the loop
        and of the loops inside it; a loop they cannot clear is walked.

        A group of accesses spans [lo, hi) from its extreme addresses and
        its loops' extremes. A group of stores is a cluster whose addresses
        lie at least 8 bytes apart when its ``addr`` values do and each
        moving stride, in ascending order, covers the reach of the cluster
        inside it. Every span in bounds, pairwise disjoint store spans and
        no load span meeting a store span show it.
        """
        # (lo, hi, is_store), hi one past the last byte; the bytes past the
        # image, and below 0 where the sweep starts, count as stored
        spans = [(len(self.mem), math.inf, True)]
        for (store, region, loops), addrs in body.accesses.items():
            if store and any(after - before < 8 for before, after in zip(addrs, addrs[1:])):
                return False
            lo, reach = self.offsets[region] + addrs[0], addrs[-1] + 8 - addrs[0]
            for count, stride in sorted(((node.count, node.strides[region]),) + loops,
                                        key=lambda loop: abs(loop[1])):
                if count > 1:
                    if store and abs(stride) < reach:
                        return False
                    reach += (count - 1) * abs(stride)
                    lo += (count - 1) * min(stride, 0)
            spans.append((lo, lo + reach, store))
        stored = anything = 0
        for lo, hi, store in sorted(spans):
            if lo < (anything if store else stored):
                return False
            anything = max(anything, hi)
            if store:
                stored = max(stored, hi)
        return True

    # -- one instruction -----------------------------------------------------

    def step(self, ins) -> None:
        cls = ins.__class__
        if cls is DcF:
            self._dcf(ins)
            self.pc += 1
            return
        self.open_byte = None
        if cls is Barrier:
            return
        if cls is VLoad:
            self.regs[ins.vd] = self.mem[self._address(ins)]
        elif cls is VStore:
            self.mem[self._address(ins)] = self.regs[ins.vs1]
        elif cls is VClear:
            self.regs[ins.vd] = np.zeros((1,) * self.depth + (8,), dtype=np.uint8)
        elif cls is DlI:
            self.tile.load_input_sector(ins.sec, *self._gather(ins))
        elif cls is DlM:
            self.tile.load_memory_row(ins.m_row + self.row, ins.sec, *self._gather(ins))
        else:
            p = self.tile.compute_row(ins.m_row + self.row, self._incoming(ins))
            self._write(ins.vd, 4 * ins.dh, np.expand_dims(np.asarray(p, "<i4"), -1).view(np.uint8))
        self.pc += 1

    def _address(self, ins) -> np.ndarray:
        """Byte indices of a vload/vstore, over the batch axes if any."""
        addr = ins.addr + self.offsets[ins.region]
        # a batched loop checked its addresses up front
        if not self.depth and not 0 <= addr <= len(self.mem) - 8:
            raise SimulationError(f"{ins.mnemonic} address {addr:#x} out of bounds", pc=self.pc)
        return np.add.outer(addr, _BYTE_OFFSETS)

    def _gather(self, ins) -> tuple:
        """A dl.i/dl.m sector payload from its register group, and its mask
        with the slices beyond nvec (which carry no payload) clipped out."""
        regs = list(np.broadcast_arrays(*self.regs[ins.vs1:ins.vs1 + ins.nvec]))
        pad = SECTOR_BYTES - 8 * ins.nvec
        if pad:
            regs.append(np.zeros(regs[0].shape[:-1] + (pad,), dtype=np.uint8))
        return np.concatenate(regs, axis=-1), ins.mask & ((1 << ins.nvec) - 1)

    def _incoming(self, ins) -> np.ndarray:
        # the 24-bit partial is the low three bytes of the sh-selected half
        lo = 4 * ins.sh
        raw = self.regs[ins.vs1][..., lo:lo + 3].astype(np.int64)
        value = raw[..., 0] | raw[..., 1] << 8 | raw[..., 2] << 16
        return value - (value >> 23 << 24)

    def _write(self, reg: int, lo: int, value: np.ndarray) -> None:
        target = writable(self.regs[reg], np.broadcast_shapes(
            self.regs[reg].shape, value.shape[:-1] + (8,)))
        target[..., lo:lo + value.shape[-1]] = value
        self.regs[reg] = target

    def _dcf(self, ins) -> None:
        nibble = np.asarray(self.tile.compute_row_final(
            ins.m_row + self.row, self._incoming(ins), self.quant), dtype=np.uint8)[..., None]
        lo = 4 * ins.dh + ins.bidx
        byte = 8 * ins.vd + lo
        if self.open_byte == byte:
            # second result of a pair: merge into the high nibble
            self._write(ins.vd, lo, self.regs[ins.vd][..., lo:lo + 1] | nibble << 4)
            self.open_byte = None
        else:
            # fresh byte: clear it and fill the low nibble
            self._write(ins.vd, lo, nibble)
            self.open_byte = byte
