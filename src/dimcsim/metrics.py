"""Throughput, speedup and area-normalized speedup, plus report emission.

Report files are deterministic: identical inputs produce byte-identical
CSV and JSON output. The per-layer CSV column order is

    layer, ops, dimc_cycles, baseline_cycles, gops, speedup, ans,
    area_ratio, frac_computing, frac_loading, frac_storing
"""

from __future__ import annotations

import csv
import json
import math
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
    try:
        rate = ops * freq_hz / cycles / 1e9
    except OverflowError:  # ops too large for a float
        rate = math.inf
    if not math.isfinite(rate):
        raise MetricError(f"gops of {ops} ops in {cycles} cycles at {freq_hz} Hz is not finite")
    return rate


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
    value = speedup_value * area_ratio
    if not math.isfinite(value):
        raise MetricError(f"ans of speedup {speedup_value} at area ratio {area_ratio} "
                          "is not finite")
    return value


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
    try:
        rate, normalized = gops(ops_total, outcome.total_cycles, freq_hz), ans(sp, area_ratio)
    except MetricError as exc:
        raise MetricError(f"layer {layer_id!r}: {exc}") from None
    return PerfReport(
        layer=layer_id,
        ops=ops_total,
        dimc_cycles=outcome.total_cycles,
        baseline_cycles=baseline,
        gops=rate,
        speedup=sp,
        ans=normalized,
        area_ratio=area_ratio,
        frac_computing=fracs["computing"],
        frac_loading=fracs["loading"],
        frac_storing=fracs["storing"],
    )


def _write_csv(path, columns, rows) -> None:
    """Floats as their repr; a name holding a comma or quote is quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_report_csv(reports, path) -> None:
    _write_csv(path, REPORT_COLUMNS,
               ([getattr(rep, c) for c in REPORT_COLUMNS] for rep in reports))


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
    _write_csv(path, SWEEP_COLUMNS, rows)
