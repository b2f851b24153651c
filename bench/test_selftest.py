"""Self-test of the benchmark on tiny inputs; runs in seconds.

    python3 -m pytest -q bench/test_selftest.py

It proves that the checks behind ``failed``/``failed_frac`` see a corrupted
output, a wrong report and a malformed word the decoder wrongly accepts, and
that a traced run times the tile and restores it afterwards.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from dimcsim import isa, mapper, tile  # noqa: E402
from workloads import Tally  # noqa: E402

TINY = (("tiny", mapper.LayerDescriptor(kind="conv", ich=8, och=5, h=4, w=4, kh=2, kw=2)),)


def one_pass(wl, tracer=None) -> Tally:
    tally = Tally()
    wl.run_pass(tracer or workloads.Untraced(), tally, 0)
    return tally


def tiny_codec(tmp_path):
    return workloads.Codec(1, tmp_path, valid=40, bad_words=9, bad_lines=9)


def test_codec_clean_pass(tmp_path):
    tally = one_pass(tiny_codec(tmp_path))
    assert (tally.attempted, tally.failed) == (58, 0)


def test_codec_counts_an_accepted_malformed_word(tmp_path, monkeypatch):
    real = isa.decode

    def lenient(word):
        try:
            return real(word)
        except isa.DecodeError:
            return isa.DlI(vs1=0, nvec=1, sec=0, mask=0)

    monkeypatch.setattr(isa, "decode", lenient)
    tally = one_pass(tiny_codec(tmp_path))
    assert tally.failed == 9
    assert tally.failed_frac == pytest.approx(9 / 58)


def test_codec_counts_an_encoder_that_agrees_with_a_wrong_decoder(tmp_path, monkeypatch):
    real_encode, real_decode = isa.encode, isa.decode
    swap = 1 << 31  # a reserved bit in every kind
    monkeypatch.setattr(isa, "encode", lambda r: real_encode(r) | swap)
    monkeypatch.setattr(isa, "decode", lambda w: real_decode(w & ~swap))
    tally = one_pass(tiny_codec(tmp_path))
    assert tally.failed >= 40


def test_verify_counts_a_corrupted_output(tmp_path, monkeypatch):
    wl = workloads.Verify(3, tmp_path, entries=TINY, names=("tiny",))
    clean = one_pass(wl)
    assert (clean.attempted, clean.failed) == (2, 0)
    real = mapper.Lowering.extract_output

    def corrupt(self, memory):
        out = real(self, memory)
        out[0, 0, 0] ^= 1
        return out

    monkeypatch.setattr(mapper.Lowering, "extract_output", corrupt)
    tally = one_pass(wl)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_timing_counts_a_changed_report(tmp_path):
    sweeps = {"tiling": (32,)}
    clean = workloads.Timing(4, tmp_path, entries=TINY, sweeps=sweeps, pinned={}, pool=2)
    assert one_pass(clean).failed == 0
    pinned = {"resnet50": "0" * 64}
    changed = workloads.Timing(4, tmp_path, entries=TINY, sweeps=sweeps, pinned=pinned, pool=2)
    assert one_pass(changed).failed == 1


def test_timing_default_reports_match_the_pinned_hashes(tmp_path):
    tally = one_pass(workloads.Timing(5, tmp_path, pool=1))
    assert tally.failed == 0 and tally.attempted > len(workloads.PINNED_SHA256)


def test_traced_pass_times_the_tile_and_restores_it(tmp_path):
    wl = workloads.Verify(3, tmp_path, entries=TINY, names=("tiny",))
    original = tile.DimcTile.compute_row
    tracer = workloads.Tracer()
    with tracer.instrument_tile():
        tally = one_pass(wl, tracer)
    assert tile.DimcTile.compute_row is original
    totals = tracer.take_totals()
    assert tally.failed == 0
    assert totals["tile.compute_calls"] == 3 * 3 * 5  # one per position and kernel
    assert totals["tile.load_calls"] > 0 and totals["sim.execute_functional"] > 0
    ids = {span[0] for span in tracer.spans}
    layer = next(s for s in tracer.spans if s[1] == "layer.tiny")
    lowered = next(s for s in tracer.spans if s[1] == "mapper.lower")
    assert lowered[4] == layer[0] and layer[4] is None and len(ids) == len(tracer.spans)
    assert layer[2] <= lowered[2] <= lowered[3] <= layer[3]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_lists_every_declared_metric(trace, capsys):
    run.main(["--workload", "codec", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
