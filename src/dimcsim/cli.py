"""Command-line front end: simulate workloads, run tiling/grouping sweeps,
and assemble/disassemble custom-instruction files.

Exit codes: 0 success, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__, baseline, isa, mapper, metrics, sim
from .geometry import PrecisionMode

BUILTIN_WORKLOADS = ("resnet50",)

_VERIFY_SEED = 0x0D13C


class WorkloadError(ValueError):
    """An input error; names the offending file, entry or option."""


@dataclass(frozen=True)
class WorkloadFile:
    """A named network: an ordered list of (name, LayerDescriptor)."""

    network: str
    entries: tuple


_LAYER_KEYS = ("name", "kind", "precision") + mapper.SHAPE_FIELDS


def _check_keys(obj: dict, known, where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise WorkloadError(f"{where}: unknown keys {unknown}")


def _parse_precision(obj, where: str) -> PrecisionMode:
    if not isinstance(obj, dict):
        raise WorkloadError(f"{where}: precision must be an object")
    _check_keys(obj, ("bits", "signed", "signed_weights"), f"{where}: precision")
    bits = obj.get("bits", 4)
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise WorkloadError(f"{where}: precision bits must be an integer, got {bits!r}")
    if not all(isinstance(obj.get(key, True), bool) for key in ("signed", "signed_weights")):
        raise WorkloadError(f"{where}: precision signedness must be true or false")
    try:
        return PrecisionMode(bits=bits,
                             input_signed=obj.get("signed", True),
                             weight_signed=obj.get("signed_weights", obj.get("signed", True)))
    except ValueError as exc:
        raise WorkloadError(f"{where}: {exc}") from None


def _read_json(source, path):
    """The document in a UTF-8 JSON file; any failure names ``source``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WorkloadError(f"{source}: not a valid JSON file ({exc})") from None


def load_workload(source) -> WorkloadFile:
    """Load a workload from a JSON path or a builtin name."""
    builtin = isinstance(source, str) and source in BUILTIN_WORKLOADS
    doc = _read_json(source, resources.files("dimcsim.workloads") / f"{source}.json"
                     if builtin else Path(source))
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise WorkloadError(f"{source}: expected an object with a 'layers' list")
    _check_keys(doc, ("network", "default_precision", "layers"), str(source))
    network = doc.get("network", "unnamed")
    if not isinstance(network, str):
        raise WorkloadError(f"{source}: network must be a string, got {network!r}")
    default_prec = _parse_precision(doc.get("default_precision", {}), f"{source}")
    entries = []
    for idx, item in enumerate(doc["layers"]):
        where = f"{source}: layer {idx}"
        if not isinstance(item, dict):
            raise WorkloadError(f"{where}: expected an object")
        name = item.get("name", f"layer{idx}")
        if not isinstance(name, str):
            raise WorkloadError(f"{where}: name must be a string, got {name!r}")
        if not name:
            raise WorkloadError(f"{where}: name must not be empty")
        where = f"{source}: layer {idx} ({name})"
        if any(name == seen for seen, _ in entries):
            raise WorkloadError(f"{where}: duplicate layer name")
        _check_keys(item, _LAYER_KEYS, where)
        missing = [key for key in ("ich", "och") if key not in item]
        if missing:
            raise WorkloadError(f"{where}: missing keys {missing}")
        prec = default_prec
        if "precision" in item:
            prec = _parse_precision(item["precision"], where)
        kwargs = {k: item[k] for k in mapper.SHAPE_FIELDS if k in item}
        try:
            layer = mapper.LayerDescriptor(kind=item.get("kind", "conv"),
                                           precision=prec, **kwargs)
        except mapper.MappingError as exc:
            raise WorkloadError(f"{where}: {exc}") from None
        entries.append((name, layer))
    if not entries:
        raise WorkloadError(f"{source}: workload has no layers")
    return WorkloadFile(network=network, entries=tuple(entries))


def _random_tensors(layer: mapper.LayerDescriptor, seed: int):
    import numpy as np
    rng = np.random.default_rng(seed)
    lo, hi = layer.precision.input_range()
    inputs = rng.integers(lo, hi + 1, size=(layer.h, layer.w, layer.ich), dtype=np.int64)
    lo, hi = layer.precision.weight_range()
    weights = rng.integers(lo, hi + 1, size=(layer.och, layer.kh, layer.kw, layer.ich),
                           dtype=np.int64)
    return inputs, weights


def _verify_layer(name, lowering, timing, extrapolated, trace_path):
    """Functional run of the costed program against the convolution reference,
    and of its walked cycles, total and per class, against the
    ``extrapolated`` outcome.

    Returns an error string on mismatch, None when the layer checks out;
    raises WorkloadError when the layer is too large to run functionally.
    """
    import numpy as np
    from . import oracle
    layer = lowering.layer
    # the two int64 tensors, then the memory image marshalled from them
    need = (8 * layer.ich * (layer.h * layer.w + layer.och * layer.kh * layer.kw)
            + lowering._layout.total_bytes)
    try:
        if need > sys.maxsize:
            # numpy cannot index past sys.maxsize: treat it as a failed allocation
            raise MemoryError
        inputs, weights = _random_tensors(layer, _VERIFY_SEED ^ zlib.crc32(name.encode()))
    except MemoryError:
        raise WorkloadError(f"layer {name!r}: running it functionally needs {need} bytes "
                            "for its tensors and memory image, more than can be "
                            "allocated") from None
    trace = [] if trace_path else None
    outcome, got = sim.run_layer(lowering, timing, inputs, weights, trace=trace)
    if trace_path:
        sim.write_trace_csv(trace, trace_path)
    if outcome.total_cycles != extrapolated.total_cycles:
        return (f"{name}: extrapolated cycles {extrapolated.total_cycles} "
                f"!= walked cycles {outcome.total_cycles}")
    for cls in sim.CLASSES:
        expected, walked = extrapolated.cycles_by_class[cls], outcome.cycles_by_class[cls]
        if walked != expected:
            return f"{name}: extrapolated {cls} cycles {expected} != walked {cls} cycles {walked}"
    want = oracle.quantize_partials(
        oracle.conv_partials(inputs, weights, layer.stride, layer.padding),
        lowering.quant)
    if not np.array_equal(got, want):
        bad = int(np.argwhere(got != want)[0][2])
        return f"{name}: output mismatch against the convolution reference (first bad channel {bad})"
    return None


def _timing_model(args) -> sim.TimingModel:
    timing = sim.TimingModel()
    if args.timing:
        doc = _read_json(args.timing, Path(args.timing))
        try:
            timing = sim.TimingModel.from_dict(doc)
        except ValueError as exc:
            raise WorkloadError(f"{args.timing}: {exc}") from None
    if args.freq is not None:
        try:
            timing = dataclasses.replace(timing, freq_hz=args.freq)
        except ValueError as exc:
            raise WorkloadError(f"--freq: {exc}") from None
    return timing


def cmd_simulate(args) -> int:
    workload = load_workload(args.workload)
    timing = _timing_model(args)
    if not (math.isfinite(args.area_ratio) and args.area_ratio > 0):
        raise ValueError(f"--area-ratio must be positive and finite, got {args.area_ratio}")
    trace_paths = {}
    if args.trace:
        root = Path(args.trace).resolve()
        for name, _ in workload.entries:
            try:
                path = trace_paths[name] = (root / f"{name}.csv").resolve()
            except ValueError as exc:  # a NUL byte names no file
                raise WorkloadError(f"layer {name!r}: cannot name a trace file ({exc})") from None
            if path.parent != root:
                raise WorkloadError(f"layer {name!r}: trace file would fall outside {args.trace}")
        root.mkdir(parents=True, exist_ok=True)
    reports = []
    ineligible = []
    failures = []
    for name, layer in workload.entries:
        try:
            plan = mapper.plan_mapping(layer)
        except mapper.NotDimcEligibleError as exc:
            ineligible.append((name, str(exc)))
            continue
        lowering = mapper.lower(layer, plan)
        outcome = sim.execute(lowering.program, timing)
        reports.append(metrics.build_report(
            name, mapper.ops_count(layer), outcome, baseline.baseline_cycles(layer),
            area_ratio=args.area_ratio, freq_hz=timing.freq_hz))
        if args.verify or args.trace:
            problem = _verify_layer(name, lowering, timing, outcome, trace_paths.get(name))
            if problem:
                failures.append(problem)
    header = {
        "report_schema": metrics.REPORT_SCHEMA,
        "dimcsim_version": __version__,
        "network": workload.network,
        "area_ratio": args.area_ratio,
        "freq_hz": timing.freq_hz,
        "memory_latency": timing.memory_latency,
        "latency": timing.latency,
        "issue_interval": timing.issue_interval,
    }
    if args.format == "json":
        metrics.write_report_json(reports, args.output, header=header,
                                  ineligible=ineligible)
    else:
        metrics.write_report_csv(reports, args.output)
    for name, reason in ineligible:
        print(f"ineligible: {name}: {reason}")
    print(f"{workload.network}: {len(reports)} layer(s) simulated, "
          f"{len(ineligible)} ineligible -> {args.output}")
    if failures:
        for line in failures:
            print(f"verification failed: {line}", file=sys.stderr)
        return 1
    return 0


# Sweep layer families: the tiling sweep grows the kernel depth with a fixed
# 32-kernel memory image, the grouping sweep grows the kernel count with a
# fixed single-row kernel.
_SWEEP_TILING_POINTS = (32, 64, 128, 256, 512)
_SWEEP_GROUPING_POINTS = (16, 32, 64, 128, 256)


def sweep_layer(mode: str, point: int, size: int) -> mapper.LayerDescriptor:
    if mode == "tiling":
        ich, och = point, 32
    else:
        ich, och = 32, point
    return mapper.LayerDescriptor(kind="conv", ich=ich, och=och, h=size, w=size,
                                  kh=2, kw=2)


def run_sweep(mode: str, points, size: int = 16,
              timing: sim.TimingModel | None = None):
    """Simulate the sweep family; returns rows shaped like SWEEP_COLUMNS.
    A point that fails raises WorkloadError naming it and ``--size``."""
    timing = timing if timing is not None else sim.TimingModel()
    rows = []
    for point in points:
        try:
            layer = sweep_layer(mode, point, size)
            plan = mapper.plan_mapping(layer)
            outcome = sim.execute(mapper.lower(layer, plan).program, timing)
            base = baseline.baseline_cycles(layer)
            rows.append((point, plan.tiling_factor, plan.group_count,
                         outcome.total_cycles, base,
                         metrics.speedup(base, outcome.total_cycles),
                         metrics.gops(mapper.ops_count(layer), outcome.total_cycles,
                                      timing.freq_hz)))
        except (mapper.MappingError, metrics.MetricError) as exc:
            raise WorkloadError(f"sweep point {point} at --size {size}: {exc}") from None
    return rows


def cmd_sweep(args) -> int:
    points = args.points or (_SWEEP_TILING_POINTS if args.mode == "tiling"
                             else _SWEEP_GROUPING_POINTS)
    rows = run_sweep(args.mode, points, args.size, _timing_model(args))
    metrics.write_sweep_csv(rows, args.output)
    print(f"{args.mode} sweep: {len(rows)} point(s) -> {args.output}")
    return 0


def cmd_asm(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise WorkloadError(f"{args.input}: not UTF-8 text ({exc})") from None
    words = isa.assemble(text)
    Path(args.output).write_bytes(isa.pack_words(words))
    print(f"{len(words)} instruction(s) -> {args.output}")
    return 0


def cmd_disasm(args) -> int:
    try:
        words = isa.unpack_words(Path(args.input).read_bytes())
    except isa.DecodeError as exc:
        raise WorkloadError(f"{args.input}: {exc}") from None
    text = isa.disassemble(words)
    if args.output:
        Path(args.output).write_text(text)
        print(f"-> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimcsim",
        description="Simulator for a vector RISC-V core with an in-pipeline "
                    "digital in-memory-compute lane")
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="simulate a workload and emit a report")
    sim_p.add_argument("workload",
                       help=f"workload JSON path or builtin name {BUILTIN_WORKLOADS}")
    sim_p.add_argument("--timing", help="timing model JSON file")
    sim_p.add_argument("--area-ratio", type=float, default=metrics.DEFAULT_AREA_RATIO,
                       help="baseline/extended area ratio (default %(default)s)")
    sim_p.add_argument("--verify", action="store_true",
                       help="also run each layer functionally against the convolution "
                            "reference, and check its walked cycles against the "
                            "extrapolated ones")
    sim_p.add_argument("--trace", metavar="DIR",
                       help="write per-layer event traces (implies full execution)")
    sim_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sim_p.add_argument("--freq", type=float, default=None,
                       help="clock frequency in Hz (default 500e6)")
    sim_p.add_argument("-o", "--output", default="report.csv")
    sim_p.set_defaults(func=cmd_simulate)

    sweep_p = sub.add_parser("sweep", help="tiling or grouping degradation sweep")
    sweep_p.add_argument("mode", choices=("tiling", "grouping"))
    sweep_p.add_argument("--points", type=lambda s: tuple(int(x) for x in s.split(",")),
                         default=None, help="comma-separated channel counts")
    sweep_p.add_argument("--size", type=int, default=16,
                         help="input h = w of the sweep layers (default %(default)s)")
    sweep_p.add_argument("--timing", help="timing model JSON file")
    sweep_p.add_argument("--freq", type=float, default=None)
    sweep_p.add_argument("-o", "--output", default="sweep.csv")
    sweep_p.set_defaults(func=cmd_sweep)

    asm_p = sub.add_parser("asm", help="assemble instruction text to a binary stream")
    asm_p.add_argument("input")
    asm_p.add_argument("-o", "--output", required=True)
    asm_p.set_defaults(func=cmd_asm)

    dis_p = sub.add_parser("disasm", help="disassemble a binary stream")
    dis_p.add_argument("input")
    dis_p.add_argument("-o", "--output", default=None)
    dis_p.set_defaults(func=cmd_disasm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
