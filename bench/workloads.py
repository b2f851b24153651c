"""The three benchmark workloads, their inputs and their correctness checks.

Each workload is built from a seed (``__init__`` is the set-up the benchmark
times) and then runs whole passes over the same generated inputs. A pass
returns the number of items it handled; every check it makes goes through a
``Tally``. Calls into dimcsim go through a tracer's ``call`` so that a traced
run can time each module from outside; the untraced run uses ``Untraced``,
which times only the workload's steps.

    timing : ResNet-50 plus the tiling and grouping sweeps, timing-only,
             under the default table and one seeded random table per pass
    verify : the functional --verify pipeline on three ResNet-50 layers
    codec  : valid and malformed words and assembly lines through the codec
"""

from __future__ import annotations

import hashlib
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from dimcsim import baseline, cli, isa, mapper, metrics, oracle, sim, tile

# sha256 of the default-table reports, pinned in ROADMAP.md
PINNED_SHA256 = {
    "resnet50": "f8f6d35e3b692cc1f56fc0ac2fbee82eecbecd52dbf73dc1967eb896bfc6a166",
    "tiling": "73bd0d4b88fef57537e71ee874265397efbdccd392e37ae11015f60ef7ac7a15",
    "grouping": "8cff1b05eed9a859cffd253761816c71c48c27a37629ccbc366ff6cd38214493",
}

# `dimcsim sweep` defaults
SWEEP_POINTS = {"tiling": (32, 64, 128, 256, 512),
                "grouping": (16, 32, 64, 128, 256)}
SWEEP_SIZE = 16

VERIFY_LAYERS = ("conv2_1_a", "conv4_2_a", "fc1000")

TABLE_POOL = 32

# Median time of calibrate() on the reference host (2 cores, Python 3.11.7).
# Host times are scaled by CALIBRATION_REF_S / calibrate(): the host this
# benchmark runs on is shared, and its speed drifts by a third over minutes.
CALIBRATION_REF_S = 0.0021
CALIBRATION_EVERY_S = 0.25


def _calibration_kernel() -> int:
    slots = [0] * 256
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        slots[i & 255] = acc
    return acc


def calibrate() -> float:
    """Seconds a fixed, allocation-free pure-Python loop takes right now;
    the median of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Tally:
    """Correctness checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Untraced:
    """Calls straight through and times only the workload's steps (a table,
    a layer, a codec pass); the end-to-end numbers are measured with this.

    The host is calibrated at the start of each step and, inside
    ``sampling()``, on a timer every CALIBRATION_EVERY_S. A step's total is
    its time net of calibration, scaled to the reference host speed by the
    median calibration taken during it.
    """

    def __init__(self):
        self.totals: dict = {}
        self.calibration: list = []
        self._step_samples: list = []
        self._calibrating = False
        self._calibrating_s = 0.0

    def _calibrate(self, *_signal) -> None:
        if self._calibrating:
            return
        self._calibrating = True
        start = time.perf_counter()
        sample = calibrate()
        self.calibration.append(sample)
        self._step_samples.append(sample)
        self._calibrating_s += time.perf_counter() - start
        self._calibrating = False

    @contextmanager
    def sampling(self):
        """Calibrate on SIGALRM every CALIBRATION_EVERY_S while inside."""
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, name, fn, *args):
        return fn(*args)

    @contextmanager
    def step(self, name):
        self._step_samples = []
        self._calibrate()
        excluded = self._calibrating_s
        start = time.perf_counter()
        try:
            yield
        finally:
            net = time.perf_counter() - start - (self._calibrating_s - excluded)
            scaled = net * CALIBRATION_REF_S / statistics.median(self._step_samples)
            for key, value in (("step." + name, scaled), ("raw." + name, net)):
                self.totals[key] = self.totals.get(key, 0.0) + value

    def take_totals(self) -> dict:
        """Totals since the last call; cleared in place, as the tile
        wrappers hold the dict."""
        totals = dict(self.totals)
        self.totals.clear()
        return totals


class Tracer(Untraced):
    """In-memory spans (id, name, start, end, parent) around the benchmark's
    calls into dimcsim, plus per-name time totals for the current pass.

    ``instrument_tile`` wraps DimcTile's public load and compute methods for
    the duration of a traced run; each tile call would be its own span, so
    calls are timed and counted in aggregate instead.
    """

    def __init__(self):
        super().__init__()
        self.origin = time.perf_counter()
        self.spans: list = []
        self.stack: list = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start - self.origin, end - self.origin, parent))
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def step(self, name):
        with super().step(name), self.span(name):
            yield

    @contextmanager
    def instrument_tile(self):
        cls = tile.DimcTile
        groups = {"compute_row": "tile.compute", "compute_row_final": "tile.compute",
                  "load_input_sector": "tile.load", "load_memory_row": "tile.load"}
        originals = {name: cls.__dict__[name] for name in groups}
        depth = [0]
        totals = self.totals

        def timed(key, fn):
            calls = key + "_calls"

            def wrapper(*args, **kwargs):
                # compute_row_final calls compute_row: count the outer call only
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] = 0
                    totals[key] = totals.get(key, 0.0) + time.perf_counter() - start
                    totals[calls] = totals.get(calls, 0) + 1
            return wrapper

        for name, key in groups.items():
            setattr(cls, name, timed(key, originals[name]))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(cls, name, fn)


def random_timing_table(rng: random.Random) -> sim.TimingModel:
    """A valid timing table with every latency and issue interval drawn."""
    return sim.TimingModel.from_dict({
        "memory_latency": rng.randint(1, 16),
        "latency": {k: rng.randint(1, 8) for k in sim.INSTRUCTION_KINDS
                    if k not in ("vload", "vstore")},
        "issue_interval": {k: rng.randint(1, 4) for k in sim.INSTRUCTION_KINDS},
    })


def _class_sums(outcome) -> dict:
    counts = {f"sim.cycles.{c}": outcome.cycles_by_class[c] for c in sim.CLASSES}
    counts.update({f"sim.counts.{c}": outcome.counts_by_class[c] for c in sim.CLASSES})
    counts["sim.instructions"] = outcome.instruction_count
    counts["sim_cycles"] = outcome.total_cycles
    return counts


def _add_counts(total: dict, outcome) -> None:
    for key, value in _class_sums(outcome).items():
        total[key] = total.get(key, 0) + value


def _report_summary(counts: dict, reports) -> dict:
    counts["min_speedup"] = min(r.speedup for r in reports)
    counts["peak_gops"] = max(r.gops for r in reports)
    return counts


def _load_resnet50():
    start = time.perf_counter()
    entries = cli.load_workload("resnet50").entries
    return entries, time.perf_counter() - start


class Timing:
    """Timing-only costing of ResNet-50 and both sweeps, as `dimcsim
    simulate resnet50` and `dimcsim sweep` do it.

    Pass ``i`` runs the default table, then random table ``i`` of a seeded
    pool, so a speed-up cannot rest on the default table's steady state.
    Only the default-table reports are hashed; every table must keep the
    class cycles summing to the total.
    """

    name = "timing"

    def __init__(self, seed: int, out_dir: Path, entries=None, sweeps=SWEEP_POINTS,
                 pinned=PINNED_SHA256, pool: int = TABLE_POOL):
        if entries is None:
            entries, self.load_s = _load_resnet50()
        else:
            self.load_s = 0.0
        start = time.perf_counter()
        self.entries = tuple(entries)
        self.sweeps = sweeps
        self.pinned = pinned
        self.out_dir = out_dir
        rng = random.Random(seed)
        self.tables = [random_timing_table(rng) for _ in range(pool)]
        self.default = sim.TimingModel()
        self.gen_s = time.perf_counter() - start
        self.counts: dict = {}

    def _cost(self, tr, tally, layer, timing):
        plan = tr.call("mapper.plan_mapping", mapper.plan_mapping, layer)
        program = tr.call("mapper.lower_compressed", mapper.lower_compressed, layer, plan)
        outcome = tr.call("sim.execute_timing", sim.execute, program, timing)
        tally.check(sum(outcome.cycles_by_class.values()) == outcome.total_cycles)
        return plan, outcome

    def _table(self, tr, tally, timing, is_default: bool) -> int:
        items = 0
        reports = []
        counts: dict = {}
        for name, layer in self.entries:
            _, outcome = self._cost(tr, tally, layer, timing)
            items += outcome.instruction_count
            _add_counts(counts, outcome)
            reports.append(tr.call("metrics.report", metrics.build_report, name,
                                   mapper.ops_count(layer), outcome,
                                   baseline.baseline_cycles(layer), metrics.DEFAULT_AREA_RATIO,
                                   timing.freq_hz))
        paths = {"resnet50": self.out_dir / "timing-resnet50.csv"}
        tr.call("metrics.report", metrics.write_report_csv, reports, paths["resnet50"])
        for mode, points in self.sweeps.items():
            rows = []
            for point in points:
                layer = cli.sweep_layer(mode, point, SWEEP_SIZE)
                plan, outcome = self._cost(tr, tally, layer, timing)
                items += outcome.instruction_count
                rows.append(tr.call("metrics.report", _sweep_row, point, plan, layer,
                                    outcome, timing.freq_hz))
            paths[mode] = self.out_dir / f"timing-{mode}.csv"
            tr.call("metrics.report", metrics.write_sweep_csv, rows, paths[mode])
        if is_default:
            for key, want in self.pinned.items():
                tally.check(hashlib.sha256(paths[key].read_bytes()).hexdigest() == want)
            self.counts = _report_summary(counts, reports)
        return items

    def run_pass(self, tr, tally, index: int) -> int:
        items = 0
        with tr.step("table.default"):
            items += self._table(tr, tally, self.default, True)
        with tr.step("table.random"):
            items += self._table(tr, tally, self.tables[index % len(self.tables)], False)
        return items


def _sweep_row(point, plan, layer, outcome, freq_hz):
    """One row of the sweep CSV, as cli.run_sweep builds it."""
    base = baseline.baseline_cycles(layer)
    return (point, plan.tiling_factor, plan.group_count, outcome.total_cycles, base,
            metrics.speedup(base, outcome.total_cycles),
            metrics.gops(mapper.ops_count(layer), outcome.total_cycles, freq_hz))


def _reference(inputs, weights, layer, quant):
    return oracle.quantize_partials(
        oracle.conv_partials(inputs, weights, layer.stride, layer.padding), quant)


class Verify:
    """The `dimcsim simulate --verify` pipeline on fixed layers with seeded
    tensors under one seeded random timing table: loop-compressed timing,
    then lower, marshal, functional execute, extract and the integer oracle.
    """

    name = "verify"

    def __init__(self, seed: int, out_dir: Path, entries=None, names=VERIFY_LAYERS):
        if entries is None:
            entries, self.load_s = _load_resnet50()
        else:
            self.load_s = 0.0
        start = time.perf_counter()
        by_name = dict(entries)
        rng = np.random.default_rng(seed)
        self.timing = random_timing_table(random.Random(seed))
        self.layers = []
        for name in names:
            layer = by_name[name]
            lo, hi = layer.precision.input_range()
            inputs = rng.integers(lo, hi + 1, size=(layer.h, layer.w, layer.ich))
            lo, hi = layer.precision.weight_range()
            weights = rng.integers(lo, hi + 1, size=(layer.och, layer.kh, layer.kw, layer.ich))
            self.layers.append((name, layer, inputs, weights))
        self.gen_s = time.perf_counter() - start
        self.counts: dict = {}

    def _verify_layer(self, tr, tally, name, layer, inputs, weights, counts, reports) -> int:
        timing = self.timing
        plan = tr.call("mapper.plan_mapping", mapper.plan_mapping, layer)
        program = tr.call("mapper.lower_compressed", mapper.lower_compressed, layer, plan)
        compressed = tr.call("sim.execute_timing", sim.execute, program, timing)
        reports.append(tr.call("metrics.report", metrics.build_report, name,
                               mapper.ops_count(layer), compressed,
                               baseline.baseline_cycles(layer), metrics.DEFAULT_AREA_RATIO,
                               timing.freq_hz))
        lowering = tr.call("mapper.lower", mapper.lower, layer, plan)
        memory = tr.call("mapper.marshal", lowering.memory_image, inputs, weights)
        outcome = tr.call("sim.execute_functional", sim.execute, lowering.program, timing,
                          memory)
        got = tr.call("mapper.extract", lowering.extract_output, outcome.memory)
        want = tr.call("oracle.conv", _reference, inputs, weights, layer, lowering.quant)
        tally.check(outcome.total_cycles == compressed.total_cycles)
        tally.check(np.array_equal(got, want))
        _add_counts(counts, outcome)
        return outcome.instruction_count

    def run_pass(self, tr, tally, index: int) -> int:
        items = 0
        counts: dict = {}
        reports: list = []
        for name, layer, inputs, weights in self.layers:
            with tr.step(f"layer.{name}"):
                items += self._verify_layer(tr, tally, name, layer, inputs, weights,
                                            counts, reports)
        self.counts = _report_summary(counts, reports)
        return items


# Word layout from the isa module docstring, kept independent of isa's own
# tables so that an encoder and decoder that agree on a wrong layout still
# fail: (funct3, ((field, shift, width), ...)); nvec is stored biased by one.
_LAYOUT = {
    isa.DlI: (0b000, (("vs1", 15, 5), ("nvec", 20, 2), ("sec", 22, 2), ("mask", 25, 4))),
    isa.DlM: (0b001, (("vs1", 15, 5), ("nvec", 20, 2), ("sec", 22, 2), ("mask", 25, 4),
                      ("m_row", 7, 5))),
    isa.DcP: (0b010, (("vs1", 15, 5), ("vd", 7, 5), ("sh", 20, 1), ("dh", 21, 1),
                      ("m_row", 22, 5))),
    isa.DcF: (0b011, (("vs1", 15, 5), ("vd", 7, 5), ("sh", 20, 1), ("dh", 21, 1),
                      ("m_row", 22, 5), ("bidx", 27, 2))),
}
_FIELD_RANGE = {"vs1": (0, 31), "vd": (0, 31), "m_row": (0, 31), "nvec": (1, 4),
                "sec": (0, 3), "mask": (0, 15), "sh": (0, 1), "dh": (0, 1), "bidx": (0, 3)}
_OPCODE = 0b0001011
_FUNCT3_MASK = 0x7 << 12


def _reference_word(cls, values: dict) -> int:
    funct3, layout = _LAYOUT[cls]
    word = _OPCODE | funct3 << 12
    for name, shift, _ in layout:
        word |= (values[name] - (name == "nvec")) << shift
    return word


def _reserved_bits(cls) -> list[int]:
    used = 0x7F | _FUNCT3_MASK
    for _, shift, width in _LAYOUT[cls][1]:
        used |= ((1 << width) - 1) << shift
    return [bit for bit in range(32) if not used >> bit & 1]


def _construct(specs):
    return [cls(*values) for cls, values in specs]


def _encode(records):
    return [isa.encode(r) for r in records]


def _decode(words):
    return [isa.decode(w) for w in words]


def _pack_round_trip(words):
    return isa.unpack_words(isa.pack_words(words))


class Codec:
    """Seeded valid words of all four kinds through construct, encode,
    disassemble, assemble, pack/unpack and decode, plus malformed words
    (reserved bits, unknown funct3, foreign opcode) for decode and
    malformed assembly lines (out-of-range fields) for the assembler.
    """

    name = "codec"

    def __init__(self, seed: int, out_dir: Path, valid: int = 20000, bad_words: int = 1000,
                 bad_lines: int = 1000):
        self.load_s = 0.0
        start = time.perf_counter()
        rng = random.Random(seed)
        kinds = tuple(_LAYOUT)
        self.specs = []
        self.expected_words = []
        for _ in range(valid):
            cls = rng.choice(kinds)
            values = {f.name: rng.randint(*_FIELD_RANGE[f.name]) for f in fields(cls)}
            self.specs.append((cls, tuple(values.values())))
            self.expected_words.append(_reference_word(cls, values))
        self.bad_words = []
        for i in range(bad_words):
            cls = rng.choice(kinds)
            word = _reference_word(cls, {f.name: rng.randint(*_FIELD_RANGE[f.name])
                                        for f in fields(cls)})
            fault = i % 3
            if fault == 0:
                word |= 1 << rng.choice(_reserved_bits(cls))
            elif fault == 1:
                word = word & ~_FUNCT3_MASK | rng.randint(4, 7) << 12
            else:
                word = word & ~0x7F | rng.choice([op for op in range(128) if op != _OPCODE])
            self.bad_words.append(word)
        self.bad_lines = []
        for _ in range(bad_lines):
            cls = rng.choice(kinds)
            values = {f.name: rng.randint(*_FIELD_RANGE[f.name]) for f in fields(cls)}
            name = rng.choice(list(values))
            lo, hi = _FIELD_RANGE[name]
            values[name] = rng.choice((lo - rng.randint(1, 8), hi + rng.randint(1, 64)))
            self.bad_lines.append(
                cls.mnemonic + " " + " ".join(f"{k}={v}" for k, v in values.items()))
        self.gen_s = time.perf_counter() - start
        self.counts: dict = {}

    def _reject(self, tally) -> int:
        rejected = 0
        for word in self.bad_words:
            try:
                isa.decode(word)
            except isa.DecodeError:
                rejected += 1
                tally.check(True)
            else:
                tally.check(False)
        for line in self.bad_lines:
            try:
                isa.assemble(line)
            except isa.AsmError:
                rejected += 1
                tally.check(True)
            else:
                tally.check(False)
        return rejected

    def run_pass(self, tr, tally, index: int) -> int:
        with tr.step("codec"):
            records = tr.call("isa.construct", _construct, self.specs)
            words = tr.call("isa.encode", _encode, records)
            text = tr.call("isa.disassemble", isa.disassemble, words)
            assembled = tr.call("isa.assemble", isa.assemble, text)
            unpacked = tr.call("isa.pack", _pack_round_trip, assembled)
            decoded = tr.call("isa.decode", _decode, unpacked)
            expected = self.expected_words
            if len(unpacked) != len(expected):
                for _ in expected:
                    tally.check(False)
            else:
                for want, word, back, record, again in zip(expected, words, unpacked,
                                                           records, decoded):
                    tally.check(word == want and back == want and again == record)
            rejected = tr.call("isa.reject", self._reject, tally)
        self.counts = {"isa.words": len(expected), "isa.rejected": rejected}
        return len(expected) + len(self.bad_words) + len(self.bad_lines)


WORKLOADS = {cls.name: cls for cls in (Timing, Verify, Codec)}
