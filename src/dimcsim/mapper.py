"""Lowering of convolution and fully-connected layers onto the DIMC lane.

A layer maps in five phases per kernel group: load the group's kernels into
weight rows, load one input patch into the input buffer, fire one compute
per kernel row, slide the window, and reload kernels for the next group.
A kernel (re)load is a hard phase boundary: the stream carries a barrier
that drains the pipeline before weight rows are overwritten, so per-group
costs add exactly instead of overlapping across the swap.
Kernels are flattened along (kh, kw, ich) with ich fastest, split into
1024-bit row chunks when they exceed one row (tiling factor T), and
processed in groups of at most floor(32 / T) kernels (grouping), chaining
the 24-bit partial through dc.p between the chunks of one kernel.

External-memory layout (all offsets 8-byte aligned)
---------------------------------------------------
The host marshals tensors so that every transfer is a unit-stride 64-bit
load, which keeps the instruction pattern identical for every output
position. Patches are pre-gathered im2col style, one zero-padded record
per output position mirroring the per-row weight layout element for
element; this realizes the conservative no-reuse policy where each patch
is fetched from memory in full. Records of one region sit at a fixed
distance and kernel k of a group fills rows k*T .. k*T + T - 1, so every
address is affine in (group, kernel, position), every weight row in the
kernel, and a layer lowers to one loop-compressed program.

    weights  : och records of ceil(kernel_bits/64)*8 bytes each
    patches  : oh*ow records, same record size as weights
    outputs  : one region per group, one record per output position;
               quantized flow packs two nibbles per byte in kernel order
               (odd counts leave the last high nibble zero), partial flow
               stores one sign-extended 32-bit partial per kernel

Register allocation
-------------------
    v0        always-zero partial source (never written; the register
              file reads unwritten registers as zero)
    v1..v16   load staging, batched per row chunk so loads pipeline
    v17..v24  live partials, kernel k of a group in half k%2 of v17+k//2
    v25..v28  packed quantized outputs

Chunks never need more than 16 staging registers (a full row is 16
slices), and any tiled kernel (T >= 2) runs with at most 16 kernels per
group, so partials fit the eight dedicated registers. Untiled partial-sum
flows can have up to 32 kernels per group and emit their computes in
batches of 16 with a store burst after each batch.

Rows and buffer sectors that a layer never loads keep the tile's initial
zeros, so partially filled rows multiply against zero instead of stale
data; groups always rewrite the same sector pattern, which keeps that
guarantee across kernel reloads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .geometry import ROW_BITS, ROWS, PrecisionMode, QuantConfig
from .isa import DcF, DcP, DlI, DlM
from .sim import Barrier, Program, Repeat, VClear, VLoad, VStore

REG_ZERO = 0
REG_STAGE = 1
REG_PART = 17
REG_OUT = 25

_PARTIAL_BATCH = 16

# address regions of the external-memory image; Repeat strides list their
# advances in this order
_WEIGHTS, _PATCHES, _OUTPUTS = range(3)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class MappingError(ValueError):
    """The layer cannot be planned or lowered as requested."""


class NotDimcEligibleError(MappingError):
    """The layer violates a DIMC constraint (precision or capacity)."""


# The integer shape fields of a LayerDescriptor, each checked on construction.
SHAPE_FIELDS = ("ich", "och", "h", "w", "kh", "kw", "stride", "padding")


@dataclass(frozen=True)
class LayerDescriptor:
    """Shape and precision of one convolutional or fully-connected layer.

    A fully-connected layer is the kind="fc" degenerate case with
    h = w = kh = kw = 1 over flattened input features.
    """

    kind: str
    ich: int
    och: int
    h: int = 1
    w: int = 1
    kh: int = 1
    kw: int = 1
    stride: int = 1
    padding: int = 0
    precision: PrecisionMode = PrecisionMode()

    def __post_init__(self):
        if self.kind not in ("conv", "fc"):
            raise MappingError(f"unknown layer kind {self.kind!r}")
        if self.kind == "fc" and (self.h, self.w, self.kh, self.kw) != (1, 1, 1, 1):
            raise MappingError("fc layers must have h = w = kh = kw = 1")
        for name in SHAPE_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise MappingError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "padding":
                raise MappingError(f"{name} must be >= 1, got {value}")
        if self.padding < 0:
            raise MappingError(f"padding must be >= 0, got {self.padding}")
        if self.oh < 1 or self.ow < 1:
            raise MappingError(
                f"empty output: oh={self.oh}, ow={self.ow} for "
                f"h={self.h}, w={self.w}, k={self.kh}x{self.kw}, "
                f"stride={self.stride}, padding={self.padding}")

    @property
    def oh(self) -> int:
        return (self.h + 2 * self.padding - self.kh) // self.stride + 1

    @property
    def ow(self) -> int:
        return (self.w + 2 * self.padding - self.kw) // self.stride + 1

    @property
    def kernel_elements(self) -> int:
        return self.ich * self.kh * self.kw


@dataclass(frozen=True)
class MappingPlan:
    """Derived tiling and grouping factors."""

    kernel_bits: int
    tiling_factor: int
    kernels_per_group: int
    group_count: int


def plan_mapping(layer: LayerDescriptor) -> MappingPlan:
    """Compute tiling factor, kernels per group and group count for a layer."""
    mode = layer.precision
    if not mode.dimc_supported:
        raise NotDimcEligibleError(
            f"precision {mode.bits}-bit exceeds the 4-bit DIMC maximum")
    kernel_bits = layer.kernel_elements * mode.bits
    tiling = _ceil_div(kernel_bits, ROW_BITS)
    if tiling > ROWS:
        raise NotDimcEligibleError(
            f"kernel needs {tiling} rows, more than the {ROWS} available")
    per_group = ROWS // tiling
    groups = _ceil_div(layer.och, per_group)
    return MappingPlan(kernel_bits=kernel_bits, tiling_factor=tiling,
                       kernels_per_group=per_group, group_count=groups)


def ops_count(layer: LayerDescriptor) -> int:
    """Total operation count with each MAC counted as two operations."""
    return 2 * layer.och * layer.oh * layer.ow * layer.kernel_elements


def _chunk_bits(kernel_bits: int, t: int) -> int:
    return min(ROW_BITS, kernel_bits - ROW_BITS * t)


def _sector_plan(chunk_bits: int):
    """(sector, nvec, mask) loads covering chunk_bits, trailing parts omitted."""
    plan = []
    for sec in range(_ceil_div(chunk_bits, 256)):
        bits = min(256, chunk_bits - 256 * sec)
        nvec = _ceil_div(bits, 64)
        plan.append((sec, nvec, (1 << nvec) - 1))
    return plan


def _partial_slot(k: int) -> tuple[int, int]:
    slot = k % _PARTIAL_BATCH
    return REG_PART + slot // 2, slot % 2


def _final_target(k: int) -> tuple[int, int, int]:
    byte = k // 2
    return REG_OUT + byte // 8, (byte % 8) // 4, byte % 4


class _Layout:
    """The kernel groups and the byte offsets of the patch and output
    regions; weights start at 0. ``full`` groups of ``per_group`` kernels,
    whose output regions follow one another from ``full_base``, come before
    a group of the ``rest`` kernels at ``rest_base`` if that is non-zero."""

    def __init__(self, layer: LayerDescriptor, plan: MappingPlan, terminal: str):
        self.per_group = plan.kernels_per_group
        self.full, self.rest = divmod(layer.och, self.per_group)
        self.record_bytes = _ceil_div(plan.kernel_bits, 64) * 8
        self.patches_base = layer.och * self.record_bytes
        positions = layer.oh * layer.ow

        def out_record(size: int) -> int:
            if terminal == "final":
                return _ceil_div(_ceil_div(size, 2), 8) * 8
            # 32-bit partials, stored two per register
            return _ceil_div(size, 2) * 8

        self.full_record = out_record(self.per_group)
        self.rest_record = out_record(self.rest)
        self.full_base = self.patches_base + positions * self.record_bytes
        self.rest_base = self.full_base + self.full * positions * self.full_record
        self.total_bytes = self.rest_base + positions * self.rest_record


class _Emitter:
    def __init__(self, layer: LayerDescriptor, plan: MappingPlan,
                 terminal: str, layout: _Layout):
        self.layer = layer
        self.plan = plan
        self.terminal = terminal
        self.layout = layout

    def _chunk_loads(self, out: list, base: int, region: int, chunk_bits: int,
                     make) -> None:
        # batch every slice load first so the loads pipeline, then issue
        # the sector transfers
        for i in range(_ceil_div(chunk_bits, 64)):
            out.append(VLoad(REG_STAGE + i, base + 8 * i, region))
        for sec, nvec, mask in _sector_plan(chunk_bits):
            out.append(make(REG_STAGE + 4 * sec, nvec, sec, mask))

    def group_prologue(self, g: int, size: int, out_record: int) -> list:
        """Group g's kernel loads, one loop over its ``size`` kernels: kernel
        k loads its record to rows k * T .. k * T + T - 1."""
        plan, layout = self.plan, self.layout
        # a kernel (re)load starts only once the pipeline has drained
        out: list = [Barrier()]
        if self.terminal == "final":
            for j in range(out_record // 8):
                out.append(VClear(REG_OUT + j))
        record = g * layout.per_group * layout.record_bytes
        loads: list = []
        for t in range(plan.tiling_factor):
            self._chunk_loads(loads, record + t * (ROW_BITS // 8), _WEIGHTS,
                              _chunk_bits(plan.kernel_bits, t), functools.partial(DlM, m_row=t))
        out.append(Repeat(size, loads, (layout.record_bytes,), rows=plan.tiling_factor))
        return out

    def position_block(self, size: int, out_base: int, out_record: int) -> list:
        """The block of a group of ``size`` kernels for its first output position."""
        plan, layout = self.plan, self.layout
        tiles = plan.tiling_factor
        out: list = []
        for t in range(tiles):
            self._chunk_loads(out, layout.patches_base + t * (ROW_BITS // 8), _PATCHES,
                              _chunk_bits(plan.kernel_bits, t), DlI)
            last = t == tiles - 1
            # a partial-sum flow stores each batch of partials before the
            # next batch reuses its registers; only untiled groups exceed one
            for start in range(0, size, _PARTIAL_BATCH):
                batch = range(start, min(start + _PARTIAL_BATCH, size))
                for k in batch:
                    row = k * tiles + t
                    preg, phalf = _partial_slot(k)
                    src, shalf = (REG_ZERO, 0) if t == 0 else (preg, phalf)
                    if last and self.terminal == "final":
                        oreg, odh, obidx = _final_target(k)
                        out.append(DcF(vs1=src, vd=oreg, sh=shalf, dh=odh,
                                       m_row=row, bidx=obidx))
                    else:
                        out.append(DcP(vs1=src, vd=preg, sh=shalf, dh=phalf, m_row=row))
                if last and self.terminal == "partial":
                    for j in range(_ceil_div(len(batch), 2)):
                        out.append(VStore(REG_PART + j, out_base + 4 * start + 8 * j, _OUTPUTS))
        if self.terminal == "final":
            for j in range(out_record // 8):
                out.append(VStore(REG_OUT + j, out_base + 8 * j, _OUTPUTS))
        return out

    def _group(self, g: int, size: int, out_base: int, out_record: int) -> list:
        """Group g's prologue, then its block repeated over the positions."""
        positions = self.layer.oh * self.layer.ow
        return self.group_prologue(g, size, out_record) + [
            Repeat(positions, self.position_block(size, out_base, out_record),
                   (0, self.layout.record_bytes, out_record))]

    def emit(self) -> list:
        """The full groups as one Repeat (they share a record size, so they
        sit at fixed distances), then the remainder group if any."""
        layout = self.layout
        body: list = []
        if layout.full:
            positions = self.layer.oh * self.layer.ow
            body.append(Repeat(layout.full, self._group(
                0, layout.per_group, layout.full_base, layout.full_record), (
                layout.per_group * layout.record_bytes, 0, positions * layout.full_record)))
        if layout.rest:
            body.extend(self._group(layout.full, layout.rest, layout.rest_base,
                                    layout.rest_record))
        return body


@dataclass(frozen=True)
class Lowering:
    """A lowered layer: the program plus its external-memory conventions."""

    layer: LayerDescriptor
    terminal: str
    quant: QuantConfig
    program: Program
    _layout: _Layout

    def memory_image(self, inputs, weights) -> bytearray:
        """Marshal integer tensors into the external-memory image.

        ``inputs`` has shape (h, w, ich) and ``weights`` (och, kh, kw, ich);
        values must lie in the precision mode's element ranges.
        """
        import numpy as np
        from .tile import pack_elements
        layer, layout = self.layer, self._layout
        mode = layer.precision
        inputs = self._checked(inputs, (layer.h, layer.w, layer.ich),
                               mode.input_range(), "inputs")
        weights = self._checked(weights, (layer.och, layer.kh, layer.kw, layer.ich),
                                mode.weight_range(), "weights")
        pad, stride = layer.padding, layer.stride
        # elements span at most [-8, 15]: int8 keeps the records small
        padded = np.zeros((layer.h + 2 * pad, layer.w + 2 * pad, layer.ich), dtype=np.int8)
        padded[pad:pad + layer.h, pad:pad + layer.w] = inputs
        windows = np.lib.stride_tricks.sliding_window_view(padded, (layer.kh, layer.kw, layer.ich))
        patches = windows[:layer.oh * stride:stride, :layer.ow * stride:stride]
        memory = bytearray()
        for rows in (weights.reshape(layer.och, -1), patches.reshape(layer.oh * layer.ow, -1)):
            # one zero-padded record per kernel or output position
            records = np.zeros((len(rows), layout.record_bytes * 8 // mode.bits), dtype=np.int8)
            records[:, :rows.shape[1]] = rows
            memory += pack_elements(records.reshape(-1), mode.bits).tobytes()
        return memory + bytes(layout.total_bytes - len(memory))

    def extract_output(self, memory) -> np.ndarray:
        """Read the output tensor (oh, ow, och) back from the memory image.

        Quantized flows return nibble values, partial flows the
        sign-extended 24-bit partial sums.
        """
        import numpy as np
        layer, layout = self.layer, self._layout
        positions = layer.oh * layer.ow

        def groups(base: int, count: int, record: int, size: int) -> np.ndarray:
            """(positions, count * size) outputs of ``count`` adjacent groups."""
            region = np.frombuffer(memory, np.uint8, count * positions * record, base)
            if self.terminal == "final":
                # kernel k is nibble k % 2 (low first) of byte k // 2
                values = np.stack([region & 0xF, region >> 4], axis=-1)
            else:
                values = region.view("<i4")
            values = values.reshape(count, positions, -1)[:, :, :size]
            return values.transpose(1, 0, 2).reshape(positions, -1)

        parts = []
        if layout.full:
            parts.append(groups(layout.full_base, layout.full, layout.full_record,
                                layout.per_group))
        if layout.rest:
            parts.append(groups(layout.rest_base, 1, layout.rest_record, layout.rest))
        out = np.concatenate(parts, axis=1).astype(np.int64)
        return out.reshape(layer.oh, layer.ow, layer.och)

    @staticmethod
    def _checked(tensor, shape, bounds, name) -> np.ndarray:
        import numpy as np
        arr = np.asarray(tensor)
        if arr.shape != shape:
            raise MappingError(f"{name} shape {arr.shape} does not match layer {shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise MappingError(f"{name} must be an integer tensor, got {arr.dtype}")
        lo, hi = bounds
        if arr.size and (arr.min() < lo or arr.max() > hi):
            raise MappingError(f"{name} values outside [{lo}, {hi}] for this precision")
        return arr


def lower(layer: LayerDescriptor, plan: MappingPlan | None = None, *,
          terminal: str = "final", quant: QuantConfig | None = None) -> Lowering:
    """Lower a layer to its loop-compressed program and memory layout.

    The program is a Repeat over the full kernel groups, then the partial
    group if any. A group is its prologue, a Repeat over its kernels that
    loads kernel 0's row chunks and advances the weight address by a record
    and the rows by T, then a Repeat over output positions. Addresses and
    rows are affine in (group, kernel, position), so ``sim.execute`` can
    cost it from its steady state or walk every iteration, with identical
    cycles.

    ``terminal`` picks how each kernel's chain ends: "final" emits dc.f
    (ReLU + requantization, packed nibbles), "partial" emits dc.p and
    stores raw partial sums.
    """
    if terminal not in ("final", "partial"):
        raise MappingError(f"terminal must be 'final' or 'partial', got {terminal!r}")
    if plan is None:
        plan = plan_mapping(layer)
    elif plan != plan_mapping(layer):
        raise MappingError("mapping plan does not match the layer")
    quant = quant if quant is not None else QuantConfig()
    layout = _Layout(layer, plan, terminal)
    program = Program(_Emitter(layer, plan, terminal, layout).emit(),
                      mode=layer.precision, quant=quant)
    return Lowering(layer=layer, terminal=terminal, quant=quant, program=program,
                    _layout=layout)


def lower_compressed(layer: LayerDescriptor, plan: MappingPlan | None = None, *,
                     terminal: str = "final", quant: QuantConfig | None = None) -> Program:
    """``lower(...).program``, kept for ``bench/workloads.py``, its only caller."""
    return lower(layer, plan, terminal=terminal, quant=quant).program
