"""Throughput, speedup and area-normalized speedup, plus report emission.

Report files are deterministic: identical inputs produce byte-identical
CSV and JSON output. The per-layer CSV column order is

    layer, ops, dimc_cycles, baseline_cycles, gops, speedup, ans,
    area_ratio, frac_computing, frac_loading, frac_storing
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

# Back-solved from the published 217x speedup / 50x area-normalized pair;
# absolute synthesis areas are not public.
DEFAULT_AREA_RATIO = 50 / 217

REPORT_COLUMNS = ("layer", "ops", "dimc_cycles", "baseline_cycles", "gops",
                  "speedup", "ans", "area_ratio", "frac_computing",
                  "frac_loading", "frac_storing")

# version of the JSON report layout, raised whenever a key is added, dropped
# or changes meaning
REPORT_SCHEMA = 1

SWEEP_COLUMNS = ("point", "tiling_factor", "group_count", "dimc_cycles",
                 "baseline_cycles", "speedup", "gops")


class MetricError(ValueError):
    """A metric is undefined for the given operands."""


def gops(ops: int, cycles: int, freq_hz: float) -> float:
    """Giga-operations per second at the given clock."""
    if cycles <= 0:
        raise MetricError(f"rate undefined for cycles={cycles}")
    if freq_hz <= 0:
        raise MetricError(f"rate undefined for freq_hz={freq_hz}")
    return ops * freq_hz / cycles / 1e9


def speedup(baseline_cycles: int, dimc_cycles: int) -> float:
    """Cycle ratio of the baseline core to the DIMC-extended core.

    Values below 1 are legal and flag a regression.
    """
    if dimc_cycles <= 0:
        raise MetricError(f"speedup undefined for dimc_cycles={dimc_cycles}")
    return baseline_cycles / dimc_cycles


def ans(speedup_value: float, area_ratio: float) -> float:
    """Area-normalized speedup: speedup scaled by baseline/extended area."""
    if area_ratio <= 0:
        raise MetricError(f"area ratio must be positive, got {area_ratio}")
    return speedup_value * area_ratio


def peak_gops(bits: int, freq_hz: float) -> float:
    """Architectural throughput ceiling: 1024/bits MACs per cycle, 2 ops each."""
    return 2 * (1024 // bits) * freq_hz / 1e9


@dataclass(frozen=True)
class PerfReport:
    """One layer's evaluation row."""

    layer: str
    ops: int
    dimc_cycles: int
    baseline_cycles: int
    gops: float
    speedup: float
    ans: float
    area_ratio: float
    frac_computing: float
    frac_loading: float
    frac_storing: float


def build_report(layer_id: str, ops_total: int, outcome, baseline: int,
                 area_ratio: float = DEFAULT_AREA_RATIO,
                 freq_hz: float = 500e6) -> PerfReport:
    """Assemble a PerfReport from a simulation outcome and baseline cost."""
    fracs = outcome.class_fractions()
    sp = speedup(baseline, outcome.total_cycles)
    return PerfReport(
        layer=layer_id,
        ops=ops_total,
        dimc_cycles=outcome.total_cycles,
        baseline_cycles=baseline,
        gops=gops(ops_total, outcome.total_cycles, freq_hz),
        speedup=sp,
        ans=ans(sp, area_ratio),
        area_ratio=area_ratio,
        frac_computing=fracs["computing"],
        frac_loading=fracs["loading"],
        frac_storing=fracs["storing"],
    )


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_report_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for rep in reports:
            row = asdict(rep)
            fh.write(",".join(_csv_cell(row[c]) for c in REPORT_COLUMNS) + "\n")


def write_report_json(reports, path, *, header: dict | None = None,
                      ineligible=()) -> None:
    doc = dict(header or {})
    doc["layers"] = [asdict(rep) for rep in reports]
    doc["ineligible"] = [{"layer": name, "reason": reason}
                         for name, reason in ineligible]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def write_sweep_csv(rows, path) -> None:
    """rows: iterables matching SWEEP_COLUMNS."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
