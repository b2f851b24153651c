"""Cycle-approximate execution engine for the DIMC-extended vector core.

The machine model is a single-issue in-order vector pipeline with 32
64-bit vector registers and the DIMC tile attached as an extra execution
lane. Only the instruction subset the layer mapper emits is modeled:
unit-stride 64-bit vector loads and stores against a flat external memory,
register clears, and the four custom tile instructions.

Register file
-------------
Registers, external memory and the tile all exchange little-endian bytes,
so the register file is one bytearray like the other two: register r is
bytes [8r, 8r+8) and its half h is bytes [8r+4h, 8r+4h+4). A dl.i/dl.m
register group is therefore one slice, and a vload or vstore one 8-byte
copy. The scoreboard keys a register half by its byte offset.

Timing contract
---------------
Each instruction issues at the earliest cycle t such that

  * t is strictly after the previous issue (single issue, in order),
  * the instruction's class unit is free (per-class issue interval),
  * every value it reads is ready, where a producer issued at t' with
    latency L makes its results ready at t' + L.

Operands are captured at issue, so write-after-read never stalls, and
write ports are not modeled, so write-after-write never stalls either; in
particular back-to-back dc.f results stream into the same destination
register one per cycle, with the nibble packing handled by the write-back
stage. Functional state always evolves in program order, making results
independent of the latency table.

Each cycle of the run is attributed to exactly one of three classes
(computing, loading, storing): the gap from one instruction's issue to the
next instruction's issue belongs to the earlier instruction's class, and
the tail after the final issue belongs to the final instruction. The three
class counters therefore always sum to the total cycle count.

dc.f nibble packing
-------------------
A dc.f result is one nibble stored into byte ``bidx`` of the dh-selected
register half, register-file byte 8*vd + 4*dh + bidx. Consecutive dc.f
instructions pack pairwise: the first write to a byte clears it and fills
the low nibble, and an immediately following dc.f aimed at the same byte
merges into the high nibble. Any other instruction flushes the packer, so
the next dc.f starts a fresh (low-nibble) byte. An odd run of results
leaves the last high nibble zero.

Loop compression
----------------
A ``Repeat`` node stands for iterations of a fixed instruction block that
differ only in memory addresses: each ``VLoad``/``VStore`` names an address
region, which each ``Repeat`` advances by its own stride per iteration. A
run without memory image or trace is timing-only: iterations are simulated
until two consecutive ones leave the scoreboard in the same relative state
and advance time by the same amount, and the remaining ones are applied as
a closed-form shift. Otherwise every iteration is walked with its addresses
rebased. Addresses never influence timing, so both paths give equal cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .isa import DcF, DcP, DlI, DlM
from .tile import DimcTile, PrecisionMode, QuantConfig, SECTOR_BYTES

NUM_VREGS = 32

CLASSES = ("computing", "loading", "storing")

INSTRUCTION_KINDS = ("vload", "vstore", "varith", "dl.i", "dl.m", "dc.p", "dc.f")

_CLASS_BY_KIND = {
    "vload": "loading",
    "dl.i": "loading",
    "dl.m": "loading",
    "vstore": "storing",
    "varith": "computing",
    "dc.p": "computing",
    "dc.f": "computing",
}

# the mapper keeps weights, patches and outputs in address regions 0-2
NUM_REGIONS = 3


class SimulationError(Exception):
    """Raised when a program cannot execute; carries the offending pc."""

    def __init__(self, message: str, pc: int | None = None):
        if pc is not None:
            message = f"pc {pc}: {message}"
        super().__init__(message)
        self.pc = pc


@dataclass(frozen=True, slots=True)
class VLoad:
    """Unit-stride 64-bit load from external memory into register vd;
    ``addr`` holds for the first iteration of every enclosing Repeat."""

    vd: int
    addr: int
    region: int = 0

    mnemonic = "vload"
    kind = "vload"


@dataclass(frozen=True, slots=True)
class VStore:
    """Unit-stride 64-bit store of register vs1 to external memory."""

    vs1: int
    addr: int
    region: int = 0

    mnemonic = "vstore"
    kind = "vstore"


@dataclass(frozen=True, slots=True)
class VClear:
    """Register clear (modeled vector arithmetic): vd = 0."""

    vd: int

    mnemonic = "vclear"
    kind = "varith"


@dataclass(frozen=True, slots=True)
class Barrier:
    """Scheduling fence: the next instruction issues only after every
    outstanding result has committed.

    Not an instruction (no class, no cycle of its own); the drain time it
    exposes is attributed to the preceding instruction's class. The mapper
    places one before each kernel reload, making a weight swap a hard
    phase boundary instead of overlapping with the previous group's tail.
    """

    mnemonic = "barrier"


@dataclass(frozen=True)
class Repeat:
    """``count`` iterations of ``body``, each advancing the addresses of
    region r by ``strides[r]`` (regions past its end stay put)."""

    count: int
    body: tuple
    strides: tuple = ()

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"repeat count must be >= 0, got {self.count}")
        if len(self.strides) > NUM_REGIONS:
            raise ValueError(f"at most {NUM_REGIONS} region strides, got {len(self.strides)}")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "strides", tuple(self.strides))


@dataclass(frozen=True)
class Program:
    """An instruction stream plus the tile configuration it assumes."""

    body: tuple
    mode: PrecisionMode = PrecisionMode()
    quant: QuantConfig = QuantConfig()

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


def class_of(instr) -> str:
    """Operation class of a decoded instruction: computing, loading or storing."""
    try:
        return _CLASS_BY_KIND[instr.kind]
    except (AttributeError, KeyError):
        raise ValueError(f"not a simulatable instruction: {instr!r}") from None


def _check_cycles(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class TimingModel:
    """Per-kind latency and issue-interval table plus the clock.

    ``memory_latency`` seeds the vload/vstore latencies unless the
    ``latency`` dict overrides them explicitly. All latencies and
    intervals must be at least 1.
    """

    memory_latency: int = 8
    freq_hz: float = 500e6
    latency: dict = field(default_factory=dict)
    issue_interval: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_cycles("memory_latency", self.memory_latency)
        lat = {
            "vload": self.memory_latency,
            "vstore": self.memory_latency,
            "varith": 1,
            "dl.i": 1,
            "dl.m": 1,
            "dc.p": 4,
            "dc.f": 4,
        }
        iv = {k: 1 for k in INSTRUCTION_KINDS}
        for table, overrides, name in ((lat, self.latency, "latency"),
                                       (iv, self.issue_interval, "issue_interval")):
            if not isinstance(overrides, dict) or set(overrides) - set(INSTRUCTION_KINDS):
                raise ValueError(f"{name} must map instruction kinds "
                                 f"{list(INSTRUCTION_KINDS)} to cycles, got {overrides!r}")
            table.update(overrides)
            for kind in INSTRUCTION_KINDS:
                _check_cycles(f"{name} for {kind}", table[kind])
        freq = self.freq_hz
        if isinstance(freq, bool) or not isinstance(freq, (int, float)) or not 0 < freq < math.inf:
            raise ValueError(f"freq_hz must be a positive finite number, got {freq!r}")
        self.latency = lat
        self.issue_interval = iv

    @classmethod
    def from_dict(cls, d: dict) -> "TimingModel":
        if not isinstance(d, dict):
            raise ValueError("timing table must be a JSON object")
        known = {"memory_latency", "freq_hz", "latency", "issue_interval"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown timing keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path) -> "TimingModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class SimOutcome:
    """Result of one simulation run.

    ``functional`` tells whether the register file ``vrf`` (8 * NUM_VREGS
    bytes) and ``memory`` reflect real execution (runs given a memory image)
    or are untouched placeholders (runs that produce timing and counts only).
    """

    total_cycles: int
    cycles_by_class: dict
    counts_by_class: dict
    vrf: bytearray
    memory: bytearray | None
    functional: bool

    @property
    def instruction_count(self) -> int:
        return sum(self.counts_by_class.values())

    def class_fractions(self) -> dict:
        total = self.total_cycles
        if total == 0:
            return {c: 0.0 for c in CLASSES}
        return {c: self.cycles_by_class[c] / total for c in CLASSES}


# Scoreboard resource keys, packed as small ints: a register half is keyed
# by its register-file byte offset (0..252), input-buffer sectors occupy
# 256..259 and weight rows 260..291.
_SEC_BASE = 8 * NUM_VREGS
_ROW_BASE = _SEC_BASE + 4


class _Machine:
    def __init__(self, program: Program, timing: TimingModel, memory, trace):
        self.mode = program.mode
        self.quant = program.quant
        self.timing = timing
        self.vrf = bytearray(8 * NUM_VREGS)
        self.tile = DimcTile()
        self.memory = memory
        self.trace = trace
        self.functional = memory is not None
        self.run_repeat = (self._walk_repeat if self.functional or trace is not None
                           else self._extrapolate_repeat)
        # per-region address offset of the walk's current iteration
        self.offsets = [0] * NUM_REGIONS
        # timing state
        self.t_last = -1
        self.t_max = 0
        self.ready: dict[int, int] = {}
        self.unit_free: dict[str, int] = {}
        self.cycles = {c: 0 for c in CLASSES}
        self.counts = {c: 0 for c in CLASSES}
        self.pending_class: str | None = None
        self.pc = 0
        # dc.f write-back packer: (register-file byte, pc) of the dc.f that
        # left a byte half filled, or None; only a dc.f at the next pc
        # completes it
        self.dcf_open_byte = None

    # -- timing -----------------------------------------------------------

    def _issue(self, kind: str, reads, writes) -> int:
        t = self.t_last + 1
        uf = self.unit_free.get(kind)
        if uf is not None and uf > t:
            t = uf
        ready = self.ready
        for key in reads:
            r = ready.get(key)
            if r is not None and r > t:
                t = r
        cls = _CLASS_BY_KIND[kind]
        if self.pending_class is not None:
            self.cycles[self.pending_class] += t - self.t_last
        self.counts[cls] += 1
        done = t + self.timing.latency[kind]
        for key in writes:
            ready[key] = done
        if done > self.t_max:
            self.t_max = done
        iv = self.timing.issue_interval[kind]
        if iv > 1:
            self.unit_free[kind] = t + iv
        self.pending_class = cls
        self.t_last = t
        return done

    def finish(self) -> None:
        if self.pending_class is not None:
            self.cycles[self.pending_class] += self.t_max - self.t_last

    def _state_signature(self):
        t = self.t_last
        active = tuple(sorted((k, v - t) for k, v in self.ready.items() if v > t))
        units = tuple(sorted((k, v - t) for k, v in self.unit_free.items() if v > t))
        return active, units, self.t_max - t, self.pending_class

    # -- one instruction ---------------------------------------------------

    def step(self, ins) -> None:
        cls = ins.__class__
        if cls is Barrier:
            # close the drain gap on the preceding instruction's class and
            # move the issue horizon past every outstanding completion
            drained = self.t_max - 1
            if drained > self.t_last:
                if self.pending_class is not None:
                    self.cycles[self.pending_class] += drained - self.t_last
                self.t_last = drained
            self.dcf_open_byte = None
            return
        if cls is VLoad:
            vd = 8 * ins.vd
            done = self._issue("vload", (), (vd, vd + 4))
            if self.functional:
                addr = self._address(ins)
                self.vrf[vd:vd + 8] = self.memory[addr:addr + 8]
        elif cls is VStore:
            vs1 = 8 * ins.vs1
            done = self._issue("vstore", (vs1, vs1 + 4), ())
            if self.functional:
                addr = self._address(ins)
                self.memory[addr:addr + 8] = self.vrf[vs1:vs1 + 8]
        elif cls is VClear:
            vd = 8 * ins.vd
            done = self._issue("varith", (), (vd, vd + 4))
            if self.functional:
                self.vrf[vd:vd + 8] = bytes(8)
        elif cls is DlI:
            done = self._issue("dl.i", self._load_reads(ins), (_SEC_BASE + ins.sec,))
            if self.functional:
                data, mask = self._gather(ins)
                self.tile.load_input_sector(ins.sec, data, mask)
        elif cls is DlM:
            done = self._issue("dl.m", self._load_reads(ins), (_ROW_BASE + ins.m_row,))
            if self.functional:
                data, mask = self._gather(ins)
                self.tile.load_memory_row(ins.m_row, ins.sec, data, mask)
        elif cls is DcP:
            dst = 8 * ins.vd + 4 * ins.dh
            done = self._issue("dc.p", self._compute_reads(ins), (dst,))
            if self.functional:
                p = self.tile.compute_row(ins.m_row, self.mode, self._incoming(ins))
                self.vrf[dst:dst + 4] = p.to_bytes(4, "little", signed=True)
        elif cls is DcF:
            dst = 8 * ins.vd + 4 * ins.dh
            done = self._issue("dc.f", self._compute_reads(ins), (dst,))
            if self.functional:
                nibble = self.tile.compute_row_final(ins.m_row, self.mode,
                                                     self._incoming(ins), self.quant)
                self._pack_nibble(dst + ins.bidx, nibble)
        else:
            raise SimulationError(f"cannot execute {ins!r}", pc=self.pc)
        if self.trace is not None:
            self.trace.append((done, _CLASS_BY_KIND[ins.kind], ins.mnemonic))
        self.pc += 1

    # -- functional helpers --------------------------------------------------

    def _load_reads(self, ins):
        if ins.vs1 + ins.nvec > NUM_VREGS:
            raise SimulationError(
                f"{ins.mnemonic} reads past register 31 (vs1={ins.vs1}, nvec={ins.nvec})",
                pc=self.pc)
        return range(8 * ins.vs1, 8 * (ins.vs1 + ins.nvec), 4)

    @staticmethod
    def _compute_reads(ins):
        return (8 * ins.vs1 + 4 * ins.sh, _SEC_BASE, _SEC_BASE + 1, _SEC_BASE + 2,
                _SEC_BASE + 3, _ROW_BASE + ins.m_row)

    def _gather(self, ins):
        data = self.vrf[8 * ins.vs1:8 * (ins.vs1 + ins.nvec)].ljust(SECTOR_BYTES, b"\0")
        # slices beyond nvec carry no payload, so clip them out of the mask
        return data, ins.mask & ((1 << ins.nvec) - 1)

    def _incoming(self, ins) -> int:
        # the 24-bit partial is the low three bytes of the sh-selected half
        src = 8 * ins.vs1 + 4 * ins.sh
        return int.from_bytes(self.vrf[src:src + 3], "little", signed=True)

    def _address(self, ins) -> int:
        # checked before slicing: a short or negative slice assigned into a
        # bytearray would silently resize it
        addr = ins.addr + self.offsets[ins.region]
        if addr < 0 or addr + 8 > len(self.memory):
            raise SimulationError(f"{ins.mnemonic} address {addr:#x} out of bounds", pc=self.pc)
        return addr

    def _pack_nibble(self, byte: int, nibble: int) -> None:
        if self.dcf_open_byte == (byte, self.pc - 1):
            # second result of a pair: merge into the high nibble
            self.vrf[byte] |= nibble << 4
            self.dcf_open_byte = None
        else:
            # fresh byte: clear it and fill the low nibble
            self.vrf[byte] = nibble
            self.dcf_open_byte = (byte, self.pc)

    # -- program walk ------------------------------------------------------

    def run_nodes(self, nodes) -> None:
        for node in nodes:
            if node.__class__ is Repeat:
                self.run_repeat(node)
            else:
                self.step(node)

    def _walk_repeat(self, node: Repeat) -> None:
        offsets = self.offsets
        for _ in range(node.count):
            self.run_nodes(node.body)
            for region, stride in enumerate(node.strides):
                offsets[region] += stride
        for region, stride in enumerate(node.strides):
            offsets[region] -= node.count * stride

    def _extrapolate_repeat(self, node: Repeat) -> None:
        prev_sig = None
        prev_delta = None
        done = 0
        while done < node.count:
            t0 = self.t_last
            c0 = dict(self.cycles)
            n0 = dict(self.counts)
            self.run_nodes(node.body)
            done += 1
            remaining = node.count - done
            if remaining == 0:
                return
            sig = self._state_signature()
            delta = (self.t_last - t0,
                     tuple(self.cycles[c] - c0[c] for c in CLASSES),
                     tuple(self.counts[c] - n0[c] for c in CLASSES))
            if sig == prev_sig and delta == prev_delta:
                self._extrapolate(remaining, delta)
                return
            prev_sig, prev_delta = sig, delta

    def _extrapolate(self, remaining: int, delta) -> None:
        dt, dcycles, dcounts = delta
        shift = remaining * dt
        self.t_last += shift
        self.t_max += shift
        for key in self.ready:
            self.ready[key] += shift
        for kind in self.unit_free:
            self.unit_free[kind] += shift
        for c, dc, dn in zip(CLASSES, dcycles, dcounts):
            self.cycles[c] += remaining * dc
            self.counts[c] += remaining * dn
        self.pc += remaining * sum(dcounts)


def execute(program: Program, timing: TimingModel | None = None,
            memory: bytearray | None = None, *, trace: list | None = None) -> SimOutcome:
    """Run a program and account its cycles.

    With a memory image the program executes functionally (the returned
    vrf and memory are the final architectural state). With a memory
    image or a trace every Repeat iteration is walked; with neither the run
    is timing-only and extrapolates each Repeat from its steady state, with
    identical cycle results. Identical inputs always produce an identical
    outcome.
    """
    timing = timing if timing is not None else TimingModel()
    machine = _Machine(program, timing, memory, trace)
    machine.run_nodes(program.body)
    machine.finish()
    return SimOutcome(
        total_cycles=machine.t_max,
        cycles_by_class=machine.cycles,
        counts_by_class=machine.counts,
        vrf=machine.vrf,
        memory=machine.memory,
        functional=machine.functional,
    )


def write_trace_csv(trace, path) -> None:
    """Write an event trace as CSV rows of (cycle, class, mnemonic)."""
    with open(path, "w", newline="") as fh:
        fh.write("cycle,class,mnemonic\n")
        for cycle, cls, mnemonic in trace:
            fh.write(f"{cycle},{cls},{mnemonic}\n")


def run_layer(lowering, timing: TimingModel | None = None, inputs=None, weights=None,
              *, trace: list | None = None):
    """Execute a lowered layer end to end and pull its output tensor back.

    ``lowering`` comes from the mapper and supplies the program, the
    external-memory layout and the output extractor; ``inputs`` and
    ``weights`` are the integer tensors to marshal into the memory image.
    Returns (SimOutcome, output tensor).
    """
    memory = lowering.memory_image(inputs, weights)
    outcome = execute(lowering.program, timing, memory, trace=trace)
    return outcome, lowering.extract_output(outcome.memory)
