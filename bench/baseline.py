"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/baseline.py [--workloads timing,verify,codec] [--seeds 1,2,...]
                              [--seconds S] [-o bench/baseline.json]

Runs are made one after another, never in parallel. For every workload and
metric the summary holds the ten values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
which must stay below the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload:7s} seed {seed:3d}  " + "  ".join(
                f"{name} {m['value']:.6g}" for name, m in runs[-1]["result"]["metrics"].items()),
                flush=True)
        summary["env"] = {k: v for k, v in runs[0]["env"].items()
                          if k not in ("seed", "workload")}
        entry = {"failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "metrics": {}}
        for name in bounds:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            ok = name == "setup_s" or stats["spread"] < bounds[name] / 3
            steady &= ok
            print(f"{workload:7s} {name:12s} median {stats['median']:.6g} {stats['unit']}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[name]}"
                  f"{'' if ok else '  (above a third of the bound)'}")
        print(f"{workload:7s} failed {entry['failed']} of {entry['attempted']} checks")
        summary["workloads"][workload] = entry
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
