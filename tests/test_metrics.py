import json

import numpy as np
import pytest

from dimcsim import mapper, sim
from dimcsim.metrics import (DEFAULT_AREA_RATIO, MetricError, PerfReport,
                             REPORT_COLUMNS, ans, build_report, gops,
                             peak_gops, speedup, write_report_csv,
                             write_report_json, write_sweep_csv)


def test_gops_reference_value():
    assert gops(10**6, 3650, 5e8) == pytest.approx(136.9863, abs=1e-3)


def test_gops_unit_case():
    assert gops(2, 1, 5e8) == 1.0


def test_gops_inverse_in_cycles():
    assert gops(1000, 200, 5e8) == pytest.approx(gops(1000, 100, 5e8) / 2)


def test_gops_undefined_for_zero_cycles():
    with pytest.raises(MetricError):
        gops(10, 0, 5e8)
    with pytest.raises(MetricError):
        gops(10, 5, 0)


def test_speedup_published_ratio():
    assert speedup(217_000, 1_000) == 217.0
    assert speedup(5, 5) == 1.0
    assert speedup(3, 6) == 0.5  # regression values are representable
    with pytest.raises(MetricError):
        speedup(1, 0)


def test_ans_published_pair():
    assert ans(speedup(217_000, 1_000), 50 / 217) == pytest.approx(50, abs=1e-9)
    assert ans(123.25, 1.0) == 123.25
    with pytest.raises(MetricError):
        ans(2.0, 0)


def test_ans_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        b = int(rng.integers(1, 10**9))
        d = int(rng.integers(1, 10**6))
        r = float(rng.uniform(1e-3, 10))
        got = ans(speedup(b, d), r)
        assert abs(got - r * b / d) <= 1e-12 * abs(r * b / d)


def test_peak_gops():
    assert peak_gops(4, 500e6) == 256.0
    assert peak_gops(2, 500e6) == 512.0
    assert peak_gops(1, 500e6) == 1024.0


def _outcome_and_layer():
    layer = mapper.LayerDescriptor(kind="conv", ich=8, och=4, h=4, w=4, kh=2, kw=2)
    outcome = sim.execute(mapper.lower(layer).program)
    return layer, outcome


def test_build_report_fields_and_fractions():
    layer, outcome = _outcome_and_layer()
    rep = build_report("l0", mapper.ops_count(layer), outcome, 10_000)
    assert rep.dimc_cycles == outcome.total_cycles
    assert rep.speedup == 10_000 / outcome.total_cycles
    assert rep.ans == pytest.approx(rep.speedup * rep.area_ratio, rel=1e-12)
    assert rep.area_ratio == DEFAULT_AREA_RATIO
    total = rep.frac_computing + rep.frac_loading + rep.frac_storing
    assert abs(total - 1.0) <= 1e-12
    for frac in (rep.frac_computing, rep.frac_loading, rep.frac_storing):
        assert 0.0 <= frac <= 1.0


def test_csv_layout_and_determinism(tmp_path):
    layer, outcome = _outcome_and_layer()
    reps = [build_report("a", mapper.ops_count(layer), outcome, 9999)]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report_csv(reps, p1)
    write_report_csv(reps, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header, row = p1.read_text().splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    assert row.startswith("a,") and len(row.split(",")) == len(REPORT_COLUMNS)


def test_json_report_contents(tmp_path):
    layer, outcome = _outcome_and_layer()
    reps = [build_report("a", mapper.ops_count(layer), outcome, 9999)]
    path = tmp_path / "r.json"
    write_report_json(reps, path, header={"area_ratio": 0.25},
                      ineligible=[("bad", "too wide")])
    doc = json.loads(path.read_text())
    assert doc["area_ratio"] == 0.25
    assert doc["layers"][0]["layer"] == "a"
    assert doc["ineligible"] == [{"layer": "bad", "reason": "too wide"}]


def test_sweep_csv(tmp_path):
    path = tmp_path / "s.csv"
    write_sweep_csv([(32, 1, 1, 100, 900, 9.0, 12.5)], path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("point,tiling_factor,group_count")
    assert lines[1] == "32,1,1,100,900,9.0,12.5"


def test_perf_report_is_frozen():
    layer, outcome = _outcome_and_layer()
    rep = build_report("x", 10, outcome, 100)
    assert isinstance(rep, PerfReport)
    with pytest.raises(AttributeError):
        rep.gops = 1.0
