"""dimcsim benchmark: one workload per run, single process, single thread.

    python3 bench/run.py --workload {timing,verify,codec} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; dimcsim is imported from ``src``.
After one untimed warm-up pass, the workload repeats whole passes over
inputs generated from ``--seed`` until ``--seconds`` have passed, checks
every output, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics. After the warm-up, a traced run
spends half its time untraced and half traced, reports the slowdown between
the two as ``trace.overhead_frac`` and writes its spans to ``bench/out/``.

Set-up (import, workload load, input generation) cannot be repeated inside
one process, so it is timed in fresh interpreters, SETUP_SAMPLES times in a
row, and reported as the median.

The model is unvalidated: the repository holds no hardware measurement.
Simulated cycles are checked only against full tracing, outputs only against
the integer oracle.
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
WORKLOAD_NAMES = ("timing", "verify", "codec")

# per-pass values a workload reports in ``counts``; 0 where it has none
WORKLOAD_VALUES = ("sim.cycles.computing", "sim.cycles.loading", "sim.cycles.storing",
                "sim.counts.computing", "sim.counts.loading", "sim.counts.storing",
                "sim.instructions", "sim_cycles", "min_speedup", "peak_gops",
                "isa.words", "isa.rejected")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up and print it as JSON (used internally)")
    return parser.parse_args(argv)


def check_sources() -> None:
    if not (SRC / "dimcsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no dimcsim sources under {SRC}")


def import_dimcsim() -> float:
    """Import dimcsim from the checkout's src and return the seconds taken."""
    check_sources()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dimcsim  # noqa: F401
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import dimcsim and build the workload; returns it with its set-up times."""
    import_s = import_dimcsim()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, OUT_DIR)
    times = {"dimcsim.import_s": import_s, "cli.load_workload_s": wl.load_s,
             "gen_s": wl.gen_s}
    times["setup_raw_s"] = sum(times.values())
    times["calibration_s"] = workloads.calibrate()
    times["setup_s"] = times["setup_raw_s"] * workloads.CALIBRATION_REF_S / times["calibration_s"]
    return wl, times


def sampled_setup(workload: str, seed: int) -> dict:
    """Median set-up times over SETUP_SAMPLES fresh interpreters, run in turn."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def measure(wl, seconds: float, tracer, tally) -> list:
    """Whole passes until ``seconds`` have gone; (seconds, items, totals) each."""
    passes = []
    start = time.perf_counter()
    with tracer.sampling():
        while not passes or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            items = wl.run_pass(tracer, tally, len(passes))
            elapsed = time.perf_counter() - t0
            passes.append((elapsed, items, tracer.take_totals()))
    return passes


def median_rate(passes, prefix="step.") -> float:
    """Items of one pass over the sum of each step's median time: at the
    reference host speed for the "step." totals, unscaled for "raw.".

    Every pass handles the same items; a median per step rather than per
    pass keeps a slow second of the host out of more of the passes.
    """
    steps = [key for key in passes[0][2] if key.startswith(prefix)]
    return passes[0][1] / sum(statistics.median(totals[key] for _, _, totals in passes)
                              for key in steps)


def layer_metrics(wl, untraced, traced, tracer, setup_times, tally) -> dict:
    def stage(name):
        return statistics.median(totals.get(name, 0.0) for _, _, totals in traced)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {key: setup_times[key] for key in ("dimcsim.import_s", "cli.load_workload_s")}
    for name in ("mapper.lower_compressed", "sim.execute_timing", "metrics.report",
                 "mapper.lower", "mapper.marshal", "mapper.extract",
                 "sim.execute_functional", "tile.compute", "tile.load", "oracle.conv"):
        out[name + "_s"] = stage(name)
    for name in ("tile.compute_calls", "tile.load_calls"):
        out[name] = stage(name)
    counts = dict.fromkeys(WORKLOAD_VALUES, 0)
    counts.update(wl.counts)
    out.update(counts)
    instructions = counts["sim.instructions"]
    out["mapper.lower_us_per_instr"] = ratio(out["mapper.lower_s"], instructions, 1e6)
    out["sim.functional_instr_per_s"] = ratio(instructions, out["sim.execute_functional_s"])
    for name in ("construct", "encode", "decode", "assemble", "disassemble"):
        out[f"isa.{name}_us"] = ratio(stage(f"isa.{name}"), counts["isa.words"], 1e6)
    out["failed_frac"] = tally.failed_frac
    out["trace.overhead_frac"] = median_rate(untraced) / median_rate(traced) - 1
    out["host.calibration_ms"] = 1e3 * statistics.median(tracer.calibration)
    return out


def environment(seed: int, workload: str) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit(), "seed": seed,
            "workload": workload}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, times = setup(args.workload, args.seed)
        print(json.dumps(times))
        return 0
    check_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = sampled_setup(args.workload, args.seed)
    wl, _ = setup(args.workload, args.seed)
    import workloads
    tally = workloads.Tally()
    # the first pass grows the heap and the collector's generations; it is
    # checked but not timed
    measure(wl, 0, workloads.Untraced(), tally)
    if args.trace:
        tracer = workloads.Tracer()
        untraced = measure(wl, args.seconds / 2, workloads.Untraced(), tally)
        with tracer.instrument_tile():
            traced = measure(wl, args.seconds / 2, tracer, tally)
        values = layer_metrics(wl, untraced, traced, tracer, setup_times, tally)
        declared = spec["per_layer"]
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent"],
                                     "spans": tracer.spans}))
    else:
        plain = workloads.Untraced()
        passes = measure(wl, args.seconds, plain, tally)
        print("pass_s = " + " ".join(f"{p[0]:.4f}" for p in passes))
        print(f"host: calibration {statistics.median(plain.calibration) * 1e3:.4f} ms "
              f"(reference {workloads.CALIBRATION_REF_S * 1e3} ms), unscaled "
              f"instr_per_s {median_rate(passes, 'raw.'):.6g}, "
              f"setup_s {setup_times['setup_raw_s']:.4f}")
        values = {"instr_per_s": median_rate(passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "setup_s": setup_times["setup_s"]}
        declared = spec["end_to_end"]
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in result.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_frac = {tally.failed_frac} ({tally.failed} of {tally.attempted} checks)")
    print(json.dumps({"env": environment(args.seed, args.workload)}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
