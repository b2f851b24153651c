"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (run pytest with
``-s`` to see them live). Numbers quoted in assertions are computed from the
default timing table documented in the README.
"""

import csv
import time

import numpy as np
import pytest

from dimcsim import cli, isa, mapper, metrics, sim
from dimcsim.geometry import PrecisionMode, QuantConfig
from dimcsim.isa import DcF, DcP, DlI, DlM


def criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {desc}{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


# -- test-local oracle --------------------------------------------------------
# Brute force on purpose, and independent of the package's reference model:
# plain loops over output positions, accumulating with python integers.

def brute_force_conv(x, w, stride, padding):
    h, width, ich = x.shape
    och, kh, kw, _ = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (width + 2 * padding - kw) // stride + 1
    padded = np.zeros((h + 2 * padding, width + 2 * padding, ich), dtype=np.int64)
    padded[padding:padding + h, padding:padding + width] = x
    out = np.zeros((oh, ow, och), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            window = padded[oy * stride:oy * stride + kh, ox * stride:ox * stride + kw]
            for k in range(och):
                acc = int(np.sum(window * w[k]))
                out[oy, ox, k] = ((acc + 2**23) % 2**24) - 2**23
    return out


def brute_force_quant(partials, shift, out_bits):
    out = np.zeros_like(partials)
    cap = 2**out_bits - 1
    flat = partials.reshape(-1)
    res = out.reshape(-1)
    for i, p in enumerate(flat):
        v = max(int(p), 0) >> shift
        res[i] = min(v, cap)
    return out


# -- shared runs --------------------------------------------------------------

@pytest.fixture(scope="module")
def resnet_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "resnet50.csv"
    start = time.monotonic()
    rc = cli.main(["simulate", "resnet50", "-o", str(out)])
    elapsed = time.monotonic() - start
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    return rc, rows, elapsed


@pytest.fixture(scope="module")
def sweep_rows():
    return {mode: cli.run_sweep(mode, points)
            for mode, points in (("tiling", (32, 64, 128, 256, 512)),
                                 ("grouping", (16, 32, 64, 128, 256)))}


# -- criteria -----------------------------------------------------------------

def test_criterion_1_functional_equivalence():
    rng = np.random.default_rng(0xACCE)
    start = time.monotonic()
    checked = 0
    for trial in range(200):
        bits = (1, 2, 4)[trial % 3]
        mode = PrecisionMode(bits, input_signed=bool(trial & 1),
                             weight_signed=bool(trial & 2))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        layer = mapper.LayerDescriptor(
            kind="conv", ich=int(rng.integers(1, 9)), och=int(rng.integers(1, 9)),
            h=int(rng.integers(kh, 11)), w=int(rng.integers(kw, 11)), kh=kh, kw=kw,
            stride=int(rng.integers(1, 3)), padding=int(rng.integers(0, 3)),
            precision=mode)
        lo, hi = mode.input_range()
        x = rng.integers(lo, hi + 1, (layer.h, layer.w, layer.ich))
        lo, hi = mode.weight_range()
        w = rng.integers(lo, hi + 1, (layer.och, layer.kh, layer.kw, layer.ich))
        want = brute_force_conv(x, w, layer.stride, layer.padding)
        if trial % 2:
            lowering = mapper.lower(layer, terminal="partial")
        else:
            shift, out_bits = int(rng.integers(0, 6)), (1, 2, 4)[trial % 3]
            lowering = mapper.lower(layer, quant=QuantConfig(shift, out_bits))
            want = brute_force_quant(want, shift, out_bits)
        _, got = sim.run_layer(lowering, None, x, w)
        if not np.array_equal(got, want):
            criterion(1, "oracle equivalence", False,
                      f"mismatch on trial {trial}: {layer}")
        checked += 1
    elapsed = time.monotonic() - start
    criterion(1, "end-to-end output equals the brute-force oracle on "
                 f"{checked} randomized layers",
              checked == 200 and elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_2_throughput_ceiling(resnet_run, sweep_rows):
    _, rows, _ = resnet_run
    violations = [r["layer"] for r in rows
                  if float(r["gops"]) > metrics.peak_gops(4, 500e6)]
    for mode, swept in sweep_rows.items():
        violations += [f"{mode}:{r[0]}" for r in swept
                       if r[6] > metrics.peak_gops(4, 500e6)]
    # mixed-precision spot checks against each precision's own ceiling
    rng = np.random.default_rng(2)
    for bits in (1, 2, 4):
        for _ in range(5):
            layer = mapper.LayerDescriptor(
                kind="conv", ich=int(rng.integers(1, 200)), och=int(rng.integers(1, 80)),
                h=6, w=6, kh=int(rng.integers(1, 3)), kw=int(rng.integers(1, 3)),
                precision=PrecisionMode(bits))
            out = sim.execute(mapper.lower(layer).program)
            rate = metrics.gops(mapper.ops_count(layer), out.total_cycles, 500e6)
            if rate > metrics.peak_gops(bits, 500e6):
                violations.append(f"{bits}bit:{layer.ich}x{layer.och}")
    criterion(2, "reported GOPS never exceeds the architectural ceiling",
              not violations, f"violations: {violations}" if violations else "0 violations")


def test_criterion_3_near_peak_utilization(resnet_run):
    _, rows, _ = resnet_run
    strong = [r for r in rows
              if float(r["gops"]) >= 100.0 and float(r["frac_computing"]) > 0.5]
    best = max(rows, key=lambda r: float(r["gops"]))
    criterion(3, "a compute-bound layer reaches 100+ GOPS with computing "
                 "fraction above 0.5",
              len(strong) >= 1,
              f"best {best['layer']}: {float(best['gops']):.1f} GOPS, "
              f"frac {float(best['frac_computing']):.3f}, {len(strong)} qualifying")


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10_000):
        b = int(rng.integers(1, 10**9))
        d = int(rng.integers(1, 10**7))
        ratio = float(rng.uniform(1e-4, 20))
        got = metrics.ans(metrics.speedup(b, d), ratio)
        want = ratio * b / d
        worst = max(worst, abs(got - want) / abs(want))
    published = metrics.ans(metrics.speedup(217_000, 1_000), 50 / 217)
    criterion(4, "ans == speedup * area_ratio and the 217x/50x pair holds",
              worst <= 1e-12 and abs(published - 50) <= 1e-9,
              f"max rel err {worst:.2e}, ans(217x)={published!r}")


def _degradation_ok(rows, factor_idx):
    prev_factor, prev_speedup = rows[0][factor_idx], rows[0][5]
    monotone, positive = True, rows[0][5] > 1
    for row in rows[1:]:
        if row[factor_idx] > prev_factor and row[5] > prev_speedup:
            monotone = False
        if row[5] <= 1:
            positive = False
        prev_factor, prev_speedup = row[factor_idx], row[5]
    return monotone, positive


def test_criterion_5_tiling_degradation(sweep_rows):
    start = time.monotonic()
    rows = sweep_rows["tiling"]
    monotone, positive = _degradation_ok(rows, 1)
    elapsed = time.monotonic() - start
    criterion(5, "tiling sweep speedup non-increasing at tiling steps and > 1",
              monotone and positive and elapsed < 10,
              "T=" + str([r[1] for r in rows]) + " speedup=" +
              str([round(r[5], 1) for r in rows]))


def test_criterion_6_grouping_degradation(sweep_rows):
    start = time.monotonic()
    rows = sweep_rows["grouping"]
    monotone, positive = _degradation_ok(rows, 2)
    elapsed = time.monotonic() - start
    criterion(6, "grouping sweep speedup non-increasing at group steps and > 1",
              monotone and positive and elapsed < 10,
              "groups=" + str([r[2] for r in rows]) + " speedup=" +
              str([round(r[5], 1) for r in rows]))


def test_criterion_7_codec_round_trip():
    start = time.monotonic()
    failures = 0
    for vs1 in range(32):
        for nvec in range(1, 5):
            for sec in range(4):
                for mask in range(16):
                    i = DlI(vs1=vs1, nvec=nvec, sec=sec, mask=mask)
                    if isa.decode(isa.encode(i)) != i:
                        failures += 1
                    for m_row in range(32):
                        j = DlM(vs1=vs1, nvec=nvec, sec=sec, mask=mask, m_row=m_row)
                        if isa.decode(isa.encode(j)) != j:
                            failures += 1
    exhaustive = 32 * 4 * 4 * 16 * 33
    rng = np.random.default_rng(7)
    n_random = 1_000_000
    f32 = rng.integers(0, 32, (n_random, 3)).tolist()
    f2 = rng.integers(0, 2, (n_random, 2)).tolist()
    f4 = rng.integers(0, 4, n_random).tolist()
    encode_fn, decode_fn = isa.encode, isa.decode
    for idx in range(n_random):
        vs1, vd, m_row = f32[idx]
        sh, dh = f2[idx]
        if idx % 2:
            i = DcP(vs1=vs1, vd=vd, sh=sh, dh=dh, m_row=m_row)
        else:
            i = DcF(vs1=vs1, vd=vd, sh=sh, dh=dh, m_row=m_row, bidx=f4[idx])
        if decode_fn(encode_fn(i)) != i:
            failures += 1
    elapsed = time.monotonic() - start
    criterion(7, f"decode(encode(.)) identity on {exhaustive} exhaustive and "
                 f"{n_random} random words",
              failures == 0 and elapsed < 10,
              f"{failures} failures, {elapsed:.1f}s")


def test_criterion_8_packing_rule():
    ok = True
    details = []
    for och in (1, 3, 5, 7):  # odd kernel counts in a single group
        layer = mapper.LayerDescriptor(kind="conv", ich=4, och=och, h=3, w=3,
                                       kh=2, kw=2)
        x = np.full((3, 3, 4), 3, dtype=np.int64)
        w = np.full((och, 2, 2, 4), 1, dtype=np.int64)
        lowering = mapper.lower(layer, quant=QuantConfig(0, 4))
        outcome, got = sim.run_layer(lowering, None, x, w)
        layout = lowering._layout
        for pos in range(layer.oh * layer.ow):
            rec = outcome.memory[layout.rest_base + pos * layout.rest_record:]
            last_byte = rec[(och - 1) // 2]
            if och % 2 and last_byte >> 4 != 0:
                ok = False
                details.append(f"och={och} pos={pos} byte={last_byte:#x}")
        # every nibble equals the saturated dot product (3*1*16 -> 15)
        if not np.array_equal(got, np.full_like(got, 15)):
            ok = False
            details.append(f"och={och}: wrong nibble values")
    criterion(8, "odd final counts pack two nibbles per byte with the "
                 "trailing half-byte zero", ok, "; ".join(details) or "4 shapes")


def test_criterion_9_constraints_and_resnet50(resnet_run):
    with pytest.raises(mapper.NotDimcEligibleError, match="4-bit"):
        mapper.plan_mapping(mapper.LayerDescriptor(
            kind="conv", ich=8, och=8, precision=PrecisionMode(8)))
    with pytest.raises(mapper.MappingError, match="och"):
        mapper.LayerDescriptor(kind="conv", ich=8, och=0)
    with pytest.raises(mapper.MappingError, match="empty output"):
        mapper.LayerDescriptor(kind="conv", ich=1, och=1, h=2, w=2, kh=3, kw=3)
    rc, rows, elapsed = resnet_run
    speedups = [float(r["speedup"]) for r in rows]
    criterion(9, "rejections are specific; ResNet50 completes with one row "
                 "per layer and speedup > 1 throughout",
              rc == 0 and len(rows) == 54 and all(s > 1 for s in speedups)
              and elapsed < 300,
              f"{len(rows)} rows in {elapsed:.1f}s, min speedup "
              f"{min(speedups):.1f}, max {max(speedups):.1f}")
