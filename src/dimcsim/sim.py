"""Cycle-approximate execution engine for the DIMC-extended vector core.

The machine model is a single-issue in-order vector pipeline with 32
64-bit vector registers and the DIMC tile attached as an extra execution
lane. Only the instruction subset the layer mapper emits is modeled:
unit-stride 64-bit vector loads and stores against a flat external memory,
register clears, and the four custom tile instructions.

Register file
-------------
Registers, external memory and the tile all exchange little-endian bytes.
Register r is bytes [8r, 8r+8) of the register file (``SimOutcome.vrf``)
and its half h is bytes [8r+4h, 8r+4h+4). The scoreboard keys half h of
register r as 2r + h.

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
independent of the latency table. The simulator therefore runs a program
in two halves: a data half (``machine``, run only given a memory image)
that computes the architectural state, and the timing half here, which
issues the same instruction stream against the scoreboard and is the only
writer of the event trace. This module imports no numpy.

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
differ only in memory addresses and weight rows: each ``VLoad``/``VStore``
names an address region, which each ``Repeat`` advances by its own stride
per iteration, and a ``Repeat`` with ``rows`` adds that many rows per
iteration to the ``m_row`` of every dl.m, dc.p and dc.f in it. ``Program``
rejects a row that leaves the tile in any iteration.

Addresses never reach the timing half, but rows are scoreboard keys, so it
first splices each row-advancing ``Repeat`` into its iterations, copying
only the records that carry a row; every later pass of such a loop would
write new keys, and it could never reach a steady state. The data half
walks those loops, since a batch keeps only its last iteration's rows.

The timing half compiles each body once per timing table, and schedules
each straight-line run in it once, as if nothing left by code before the
run delayed it: every issue, completion and class gap becomes an offset
from the run's first issue. One per-instruction kernel writes the timing
contract. It compiles a run by issuing it from a scoreboard at -infinity,
recording the offset at which the run first reads each key it has not
written. A run then costs one check that the values and units it waits for
from before it are ready by those offsets (a loop's later passes skip keys
the body never writes), and the schedule applied at the cycle after the
last issue; when the check fails, the same kernel issues its instructions
one by one. A run without memory image or trace is timing-only: iterations
are run until two consecutive ones leave the scoreboard in the same
relative state and advance time by the same amount, and the remaining ones
are applied as a closed-form shift. A run with a memory image or a trace
walks every iteration through the same compiled runs; a loop whose body is
one run issues all its passes in one call, and every pass but the last
stores only the keys a later pass reads before writing them. Each pass
still checks its guard against the scoreboard, and the last pass, like any
pass issued one by one, stores every key the run writes. Addresses never
influence timing, so both give equal cycles, and ``--verify`` checks that
they do.

Every fault but an out-of-bounds access, which the data half reports with
the pc the unrolled program reaches it at, is static: ``Program`` rejects
it when it is built, in the same pass that counts its instructions per
class. ``execute`` reports those counts, so neither half counts
instructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import is_, sub

from .geometry import ROWS, PrecisionMode, QuantConfig
from .isa import DcF, DcP, DlI, DlM

NUM_VREGS = 32

CLASSES = ("computing", "loading", "storing")

INSTRUCTION_KINDS = ("vload", "vstore", "varith", "dl.i", "dl.m", "dc.p", "dc.f")

_CLASS_BY_KIND = {"varith": "computing", "dc.p": "computing", "dc.f": "computing",
                  "vload": "loading", "dl.i": "loading", "dl.m": "loading",
                  "vstore": "storing"}
_CLASS_INDEX = {kind: CLASSES.index(cls) for kind, cls in _CLASS_BY_KIND.items()}
_KIND_INDEX = {kind: i for i, kind in enumerate(INSTRUCTION_KINDS)}

# the mapper keeps weights, patches and outputs in address regions 0-2
NUM_REGIONS = 3


class SimulationError(Exception):
    """Raised by ``Program`` for an instruction that can never execute and
    by ``execute`` for an out-of-bounds access; carries the offending pc."""

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
    region r by ``strides[r]`` (missing trailing strides are 0) and the
    weight row of every dl.m, dc.p and dc.f in it, at any depth, by
    ``rows``: iteration n adds n * rows to their ``m_row``, and nested
    advances add up."""

    count: int
    body: tuple
    strides: tuple = ()
    rows: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"repeat count must be >= 0, got {self.count}")
        if isinstance(self.rows, bool) or not isinstance(self.rows, int) or self.rows < 0:
            raise ValueError(f"repeat rows must be an integer >= 0, got {self.rows!r}")
        if len(self.strides) > NUM_REGIONS:
            raise ValueError(f"at most {NUM_REGIONS} region strides, got {len(self.strides)}")
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "strides",
                           tuple(self.strides) + (0,) * (NUM_REGIONS - len(self.strides)))


@dataclass(frozen=True)
class Program:
    """An instruction stream plus the tile configuration it assumes.

    Construction rejects any instruction that cannot execute, with
    SimulationError and the pc the unrolled program reaches it at, and
    counts the unrolled program's instructions per class in ``counts``.
    """

    body: tuple
    mode: PrecisionMode = PrecisionMode()
    quant: QuantConfig = QuantConfig()
    counts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "counts", tuple(_check(self.body, 0, 0)[0]))


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


@dataclass
class SimOutcome:
    """Result of one simulation run.

    The register file ``vrf`` (8 * NUM_VREGS bytes) and ``memory`` are the
    final architectural state of a run given a memory image; a run without
    one leaves ``vrf`` zero and ``memory`` None.
    """

    total_cycles: int
    cycles_by_class: dict
    counts_by_class: dict
    vrf: bytearray
    memory: bytearray | None

    @property
    def instruction_count(self) -> int:
        return sum(self.counts_by_class.values())

    def class_fractions(self) -> dict:
        total = self.total_cycles
        if total == 0:
            return {c: 0.0 for c in CLASSES}
        return {c: self.cycles_by_class[c] / total for c in CLASSES}


def _fault(ins, row: int) -> str | None:
    """Why ``ins`` cannot execute with its weight row advanced by ``row``,
    or None when it can."""
    cls = ins.__class__
    if cls is VLoad or cls is VStore or cls is VClear:
        reg = ins.vs1 if cls is VStore else ins.vd
        if not 0 <= reg < NUM_VREGS:
            return f"{ins.mnemonic} register {reg} out of range [0, {NUM_VREGS - 1}]"
        if cls is not VClear and not 0 <= ins.region < NUM_REGIONS:
            return f"{ins.mnemonic} address region {ins.region} out of range"
        return None
    if cls is DlI or cls is DlM:
        if ins.vs1 + ins.nvec > NUM_VREGS:
            return f"{ins.mnemonic} reads past register 31 (vs1={ins.vs1}, nvec={ins.nvec})"
        if cls is DlI:
            return None
    elif cls is not DcP and cls is not DcF:
        return f"cannot execute {ins!r}"
    if ins.m_row + row >= ROWS:
        return f"{ins.mnemonic} weight row {ins.m_row + row} out of range [0, {ROWS - 1}]"
    return None


def _check(nodes, pc: int, row: int) -> tuple:
    """Raise on the first instruction in ``nodes`` that cannot execute, with
    the pc the unrolled program reaches it at (the first node's is ``pc``)
    when their weight rows are advanced by ``row``. Returns the instructions
    per class one pass executes and the highest weight row any iteration
    reaches, -1 if none. Repeat(0) bodies never execute.

    Every fault but a weight row past the last is the same in each
    iteration, so a loop's first pass finds it; a row loop whose last pass
    reaches past the last row is checked again at the first pass that does.
    """
    counts = [0] * len(CLASSES)
    reach = -1
    for node in nodes:
        cls = node.__class__
        if cls is Repeat:
            if node.count:
                at = pc + sum(counts)
                inner, top = _check(node.body, at, row)
                if top >= 0:
                    last = top + (node.count - 1) * node.rows
                    if last >= ROWS:
                        # check again the first pass that reaches past the
                        # last row, which raises at its offending pc
                        n = -((top - ROWS) // node.rows)
                        _check(node.body, at + n * sum(inner), row + n * node.rows)
                    reach = max(reach, last)
                counts = [n + node.count * m for n, m in zip(counts, inner)]
        elif cls is not Barrier:
            fault = _fault(node, row)
            if fault:
                raise SimulationError(fault, pc=pc + sum(counts))
            if cls is DlM or cls is DcP or cls is DcF:
                reach = max(reach, node.m_row + row)
            counts[_CLASS_INDEX[node.kind]] += 1
    return counts, reach


# -- timing half ---------------------------------------------------------------

# Scoreboard keys, small ints indexing one list: half h of register r is key
# 2r + h. The input buffer is one key, since every compute reads all four
# sectors and dl.i results complete in issue order, so the latest dl.i
# bounds them all; weight rows follow it, then one key per instruction kind
# holding the cycle its unit is free again.
_INPUT_KEY = 2 * NUM_VREGS
_ROW_KEY = _INPUT_KEY + 1
_UNIT_KEY = _ROW_KEY + ROWS
_SCOREBOARD_KEYS = _UNIT_KEY + len(INSTRUCTION_KINDS)

# shared key tuples: a register's two halves, per (vs1, nvec) a register
# group's halves, one half, the input buffer, one weight row, and per
# (half, row) what a compute reads
_REGISTER_KEYS = tuple((2 * r, 2 * r + 1) for r in range(NUM_VREGS))
_GROUP_KEYS = tuple(tuple(tuple(range(2 * vs1, 2 * (vs1 + nvec))) for nvec in range(5))
                    for vs1 in range(NUM_VREGS))
_HALF_KEYS = tuple((key,) for key in range(2 * NUM_VREGS))
_INPUT_KEYS = (_INPUT_KEY,)
_ROW_KEYS = tuple((_ROW_KEY + row,) for row in range(ROWS))
_COMPUTE_KEYS = tuple(tuple((half, _INPUT_KEY, _ROW_KEY + row) for row in range(ROWS))
                      for half in range(2 * NUM_VREGS))


def _scoreboard(ins) -> tuple:
    """(kind, keys read, keys written) of a valid instruction."""
    cls = ins.__class__
    if cls is VLoad or cls is VClear:
        return ins.kind, (), _REGISTER_KEYS[ins.vd]
    if cls is VStore:
        return "vstore", _REGISTER_KEYS[ins.vs1], ()
    if cls is DlI:
        return "dl.i", _GROUP_KEYS[ins.vs1][ins.nvec], _INPUT_KEYS
    if cls is DlM:
        return "dl.m", _GROUP_KEYS[ins.vs1][ins.nvec], _ROW_KEYS[ins.m_row]
    return ins.kind, _COMPUTE_KEYS[2 * ins.vs1 + ins.sh][ins.m_row], _HALF_KEYS[2 * ins.vd + ins.dh]


def _shifted_repeat(node: Repeat, r: int) -> Repeat:
    body = _spliced(node.body, r)
    return node if body is node.body else Repeat(node.count, body, node.strides)


# per class, its copy with every weight row in it advanced by r
_SHIFTED = {
    DlM: lambda ins, r: DlM(ins.vs1, ins.nvec, ins.sec, ins.mask, ins.m_row + r),
    DcP: lambda ins, r: DcP(ins.vs1, ins.vd, ins.sh, ins.dh, ins.m_row + r),
    DcF: lambda ins, r: DcF(ins.vs1, ins.vd, ins.sh, ins.dh, ins.m_row + r, ins.bidx),
    Repeat: _shifted_repeat,
}


def _spliced(nodes, row: int = 0) -> tuple:
    """``nodes`` with their weight rows advanced by ``row`` and every Repeat
    that advances rows replaced by its iterations. Only what holds a row is
    copied, and ``nodes`` itself is returned when nothing changes."""
    out = []
    for node in nodes:
        cls = node.__class__
        if cls is Repeat and node.rows:
            # iteration n is the first with each record or loop that holds
            # a row advanced by n * rows
            body = _spliced(node.body, row)
            shifts = [(i, _SHIFTED[ins.__class__]) for i, ins in enumerate(body)
                      if ins.__class__ in _SHIFTED]
            for n in range(node.count):
                start = len(out)
                out += body
                for i, shift in shifts if n else ():
                    out[start + i] = shift(body[i], n * node.rows)
        elif cls is Repeat or row and cls in _SHIFTED:
            out.append(_SHIFTED[cls](node, row))
        else:
            out.append(node)
    if len(out) == len(nodes) and all(map(is_, out, nodes)):
        return nodes
    return tuple(out)


class _Run:
    """A straight-line run scheduled once, by the same kernel that issues it
    when its guard fails, from a scoreboard at _NEVER so that no entry
    value delays its first issue. Every output is an offset from that
    issue: ``gaps`` each class's cycles as (class, cycles), ``stores`` each
    key's last write as (key, offset), ``peak`` the latest completion,
    ``tail`` the last issue, ``rows`` (completion, class name, mnemonic)
    per instruction when traced, else None; ``last`` is the class of the
    last issue.

    The schedule holds exactly when the entry value of each key the run
    reads before writing is ready by the offset of its first reader.
    ``guards`` lists those (keys, offsets) for the first pass of the
    enclosing loop, and for any later pass, which need not check a key the
    loop body never writes: the first pass already waited for it.

    ``live`` is the part of ``stores`` on the later-pass guard's keys. When
    the loop body is this run alone, those are the only keys a later pass
    reads before it writes them, in its guard or when it issues one by one,
    so a pass with another after it stores only ``live``.
    """

    __slots__ = ("instructions", "gaps", "stores", "live", "peak", "tail", "rows", "last",
                 "guards")


def _kinds(timing: TimingModel) -> dict:
    """Per kind: class index, unit key, latency, issue interval."""
    return {kind: (_CLASS_INDEX[kind], _UNIT_KEY + _KIND_INDEX[kind],
                   timing.latency[kind], timing.issue_interval[kind])
            for kind in INSTRUCTION_KINDS}


# parts of a compiled body besides runs: a barrier, a loop
_BARRIER, _LOOP = range(2)

# the ready time, on a scratch scoreboard, of a key nothing has written yet
_NEVER = -math.inf


class _Clock:
    """The timing half: a scoreboard advanced over bodies compiled once per
    timing table.

    A compiled body is a tuple of parts: a _Run (the schedule of a
    straight-line run), (_BARRIER, None, None), and (_LOOP, count, body)
    for a Repeat. ``ready`` holds, per scoreboard key, the cycle its value
    is ready or its unit is free again. One kernel, ``_issue_each``, turns
    instructions into issue times, class gaps, stores and completions: it
    compiles each run on a scratch clock at _NEVER, and issues a run whose
    guard fails. ``_issue`` advances the state over a run, or over every
    pass of a walked loop whose body is one run; the extrapolating and the
    walking run both go through it, and it is the only writer of the
    trace.
    """

    def __init__(self, kinds: dict, trace, walk: bool = False, ready=0):
        self.kinds = kinds
        self.trace = trace
        self.run_loop = self._walk_loop if walk else self._extrapolate_loop
        self.ready = [ready] * _SCOREBOARD_KEYS
        # the extra slot takes the (meaningless) gap before the first issue
        self.cycles = [0] * (len(CLASSES) + 1)
        self.pending = len(CLASSES)
        self.t_last = -1
        self.t_max = 0

    def compile(self, nodes) -> tuple:
        """(compiled body, keys one pass writes). Each Repeat that advances
        weight rows is first spliced into its iterations, so a body compiles
        to the runs, barriers and loops of its unrolled rows."""
        return self._compile(_spliced(nodes))

    def _compile(self, nodes) -> tuple:
        parts = []
        written = set()
        first = None
        for i, node in enumerate(nodes):
            cls = node.__class__
            if cls is not Repeat and cls is not Barrier:
                if first is None:
                    first = i
                continue
            if first is not None:
                parts.append(self._compile_run(nodes[first:i]))
                first = None
            if cls is Barrier:
                parts.append((_BARRIER, None, None))
            elif node.count:
                body, inner = self._compile(node.body)
                parts.append((_LOOP, node.count, body))
                written |= inner
        if first is not None:
            parts.append(self._compile_run(nodes[first:]))
        runs = [part for part in parts if part.__class__ is _Run]
        for run in runs:
            written.update(key for key, _ in run.stores)
        for run in runs:
            waits = run.guards
            warm = {key: at for key, at in waits.items() if key in written}
            run.guards = tuple((tuple(w), tuple(w.values())) for w in (waits, warm))
            run.live = tuple((key, c) for key, c in run.stores if key in warm)
        return tuple(parts), written

    def _compile_run(self, instructions) -> _Run:
        """Schedule one straight-line run to a _Run by issuing it through
        ``_issue_each`` on a scratch clock whose keys are all at _NEVER, so
        no entry value delays it and the first issue is at offset 0."""
        scratch = _Clock(self.kinds, None if self.trace is None else [], ready=_NEVER)
        waits = {}
        scratch._issue_each(instructions, waits)
        run = _Run()
        run.instructions = instructions
        run.gaps = tuple((c, n) for c, n in enumerate(scratch.cycles[:len(CLASSES)]) if n)
        run.stores = tuple((key, c) for key, c in enumerate(scratch.ready) if c != _NEVER)
        run.peak = scratch.t_max
        run.tail = scratch.t_last
        run.rows = scratch.trace
        run.last = scratch.pending
        # compile turns these into the cold and warm guards
        run.guards = waits
        return run

    def run(self, body, warm: bool = False) -> None:
        """Advance over a compiled body; ``warm`` when an earlier pass of
        the same loop ran just before."""
        for part in body:
            if part.__class__ is _Run:
                self._issue(part, warm)
            elif part[0] == _BARRIER:
                # close the drain gap on the preceding instruction's class
                # and move the issue horizon past every outstanding result
                drained = self.t_max - 1
                if drained > self.t_last:
                    self.cycles[self.pending] += drained - self.t_last
                    self.t_last = drained
            else:
                self.run_loop(part[1], part[2])

    def _issue(self, run: _Run, warm: bool, passes: int = 1) -> None:
        """Issue ``passes`` back-to-back passes of a straight-line run, the
        first under the guard ``warm`` selects and the rest under the warm
        one: each pass its compiled schedule, shifted to the cycle after the
        last issue, when its guard shows that no entry value binds, else its
        instructions one by one. A pass applying its schedule stores only
        ``live`` while another pass follows it, since the next pass writes
        every other key before reading it."""
        ready, cycles, trace = self.ready, self.cycles, self.trace
        t_last, t_max, pending = self.t_last, self.t_max, self.pending
        gaps, live, peak, tail, rows = run.gaps, run.live, run.peak, run.tail, run.rows
        for left in range(passes - 1, -1, -1):
            t = t_last + 1
            keys, offsets = run.guards[warm]
            if keys and max(map(sub, map(ready.__getitem__, keys), offsets)) > t:
                self.t_last, self.t_max, self.pending = t_last, t_max, pending
                self._issue_each(run.instructions)
                t_last, t_max, pending = self.t_last, self.t_max, self.pending
            else:
                cycles[pending] += 1
                for cls, n in gaps:
                    cycles[cls] += n
                for key, c in live if left else run.stores:
                    ready[key] = t + c
                if t + peak > t_max:
                    t_max = t + peak
                t_last = t + tail
                pending = run.last
                if rows is not None:
                    trace.extend([(t + c, name, mnemonic) for c, name, mnemonic in rows])
            warm = True
        self.t_last, self.t_max, self.pending = t_last, t_max, pending

    def _issue_each(self, instructions, waits: dict | None = None) -> None:
        """Issue instructions one by one under the timing contract. With
        ``waits``, also record for each key read while still at _NEVER the
        issue time of its first reader."""
        ready, cycles, kinds, trace = self.ready, self.cycles, self.kinds, self.trace
        t_last, t_max, pending = self.t_last, self.t_max, self.pending
        for ins in instructions:
            kind, reads, writes = _scoreboard(ins)
            cls, unit, latency, interval = kinds[kind]
            t = t_last + 1
            # the unit is a read only when its interval can stall
            throttled = interval > 1
            if throttled and ready[unit] > t:
                t = ready[unit]
            for key in reads:
                if ready[key] > t:
                    t = ready[key]
            if waits is not None:
                for key in reads:
                    if ready[key] == _NEVER:
                        waits.setdefault(key, t)
                if throttled and ready[unit] == _NEVER:
                    waits.setdefault(unit, t)
            if throttled:
                ready[unit] = t + interval
            cycles[pending] += t - t_last
            done = t + latency
            for key in writes:
                ready[key] = done
            if done > t_max:
                t_max = done
            if trace is not None:
                trace.append((done, CLASSES[cls], ins.mnemonic))
            t_last, pending = t, cls
        self.t_last, self.t_max, self.pending = t_last, t_max, pending

    def finish(self) -> None:
        self.cycles[self.pending] += self.t_max - self.t_last

    def _walk_loop(self, count: int, body) -> None:
        if len(body) == 1 and body[0].__class__ is _Run:
            self._issue(body[0], False, count)
            return
        for done in range(count):
            self.run(body, done > 0)

    def _extrapolate_loop(self, count: int, body) -> None:
        """Run iterations until two consecutive ones leave the scoreboard in
        the same relative state and advance time and class cycles by the
        same amounts; the rest is then the same shift, applied in closed
        form. Every pass ends on the same class, so ``pending`` needs no
        check."""
        previous = None
        for done in range(1, count + 1):
            t0, cycles0 = self.t_last, self.cycles[:len(CLASSES)]
            self.run(body, done > 1)
            if done == count:
                return
            t = self.t_last
            dt, dcycles = t - t0, tuple(c - c0 for c, c0 in zip(self.cycles, cycles0))
            state = ([(k, v - t) for k, v in enumerate(self.ready) if v > t],
                     self.t_max - t, dt, dcycles)
            if state == previous:
                remaining = count - done
                shift = remaining * dt
                self.t_last += shift
                self.t_max += shift
                self.ready[:] = [v + shift for v in self.ready]
                for c, dc in enumerate(dcycles):
                    self.cycles[c] += remaining * dc
                return
            previous = state


def execute(program: Program, timing: TimingModel | None = None,
            memory: bytearray | None = None, *, trace: list | None = None) -> SimOutcome:
    """Run a program and account its cycles.

    With a memory image the program executes functionally (the returned
    vrf and memory are the final architectural state). With a memory
    image or a trace the timing walks every Repeat iteration; with neither
    the run is timing-only and extrapolates each Repeat from its steady
    state, with identical cycle results. Identical inputs always produce an
    identical outcome.
    """
    timing = timing if timing is not None else TimingModel()
    vrf = bytearray(8 * NUM_VREGS)
    if memory is not None:
        from .machine import _Machine
        machine = _Machine(program, memory)
        machine.run_nodes(program.body)
        vrf = machine.vrf
    clock = _Clock(_kinds(timing), trace, walk=memory is not None or trace is not None)
    clock.run(clock.compile(program.body)[0])
    clock.finish()
    return SimOutcome(
        total_cycles=clock.t_max,
        cycles_by_class=dict(zip(CLASSES, clock.cycles)),
        counts_by_class=dict(zip(CLASSES, program.counts)),
        vrf=vrf,
        memory=memory,
    )


def write_trace_csv(trace, path) -> None:
    """Write an event trace as CSV rows of (cycle, class, mnemonic)."""
    with open(path, "w", newline="") as fh:
        fh.write("cycle,class,mnemonic\n")
        for cycle, cls, mnemonic in trace:
            fh.write(f"{cycle},{cls},{mnemonic}\n")


def run_layer(lowering, timing: TimingModel | None, inputs, weights, *,
              trace: list | None = None):
    """Execute a lowered layer end to end and pull its output tensor back.

    ``lowering`` comes from the mapper and supplies the program, the
    external-memory layout and the output extractor; ``inputs`` and
    ``weights`` are the integer tensors to marshal into the memory image.
    Returns (SimOutcome, output tensor).
    """
    memory = lowering.memory_image(inputs, weights)
    outcome = execute(lowering.program, timing, memory, trace=trace)
    return outcome, lowering.extract_output(outcome.memory)
