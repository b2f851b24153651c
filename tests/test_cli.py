import hashlib
import json

import pytest

import dimcsim
from dimcsim import cli, mapper, metrics, sim

# sha256 of the default-table reports, as pinned in ROADMAP.md
REPORT_SHA256 = {
    "resnet50": "f8f6d35e3b692cc1f56fc0ac2fbee82eecbecd52dbf73dc1967eb896bfc6a166",
    "tiling": "73bd0d4b88fef57537e71ee874265397efbdccd392e37ae11015f60ef7ac7a15",
    "grouping": "8cff1b05eed9a859cffd253761816c71c48c27a37629ccbc366ff6cd38214493",
}

# under this table many straight-line runs wait for a dc.p or dc.f unit left
# busy before them, so their instructions issue one by one: sha256 of the
# resnet50 report and of the --trace CSV of UNTILED_LAYER
BINDING_TABLE = {"issue_interval": {"dc.p": 40, "dc.f": 40}}
BINDING_SHA256 = {
    "resnet50": "1730d728c3f49545983740ec28156eb62c6d5c857ec57e99499ca230a8b105d5",
    "untiled": "cb99491848e604d2d4802acc5211b0b3defcd91f1cd6272cd6a9bdc0d862f0d1",
}
UNTILED_LAYER = {"name": "untiled", "kind": "conv", "ich": 16, "och": 40, "h": 6, "w": 6,
                 "kh": 3, "kw": 3, "padding": 1}


def write_workload(path, layers, network="testnet", default_bits=4):
    doc = {"network": network,
           "default_precision": {"bits": default_bits, "signed": True},
           "layers": layers}
    path.write_text(json.dumps(doc))
    return str(path)


UNIT_LAYER = {"name": "unit", "kind": "conv", "ich": 1, "och": 1,
              "h": 1, "w": 1, "kh": 1, "kw": 1}


def test_simulate_unit_layer(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", wl, "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "unit" and row[1] == "2"  # ops = 2 for the 1x1x1 layer
    assert "1 layer(s)" in capsys.readouterr().out


def test_simulate_lists_ineligible_8bit_layer(tmp_path, capsys):
    layers = [UNIT_LAYER,
              {"name": "wide", "kind": "conv", "ich": 4, "och": 4, "h": 4, "w": 4,
               "kh": 1, "kw": 1, "precision": {"bits": 8, "signed": True}}]
    wl = write_workload(tmp_path / "wl.json", layers)
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", wl, "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # header + the eligible row
    captured = capsys.readouterr().out
    assert "ineligible: wide" in captured and "4-bit" in captured


def test_simulate_verify_small_workload(tmp_path):
    layers = [{"name": "small", "kind": "conv", "ich": 3, "och": 5, "h": 5, "w": 5,
               "kh": 3, "kw": 3, "stride": 1, "padding": 1}]
    wl = write_workload(tmp_path / "wl.json", layers)
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", wl, "--verify", "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_simulate_trace_writes_csv(tmp_path):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    tdir = tmp_path / "traces"
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv"),
                     "--trace", str(tdir)]) == 0
    trace = (tdir / "unit.csv").read_text().splitlines()
    assert trace[0] == "cycle,class,mnemonic"
    assert any("dc.f" in line for line in trace[1:])


def test_simulate_json_format_echoes_configuration(tmp_path):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    table = tmp_path / "timing.json"
    table.write_text(json.dumps({"issue_interval": {"dc.p": 4}}))
    docs = []
    for extra in ([], ["--timing", str(table)]):
        out = tmp_path / "report.json"
        assert cli.main(["simulate", wl, "--format", "json", "--area-ratio", "0.5",
                         "-o", str(out)] + extra) == 0
        docs.append(json.loads(out.read_text()))
    default, custom = docs
    assert default["area_ratio"] == 0.5
    assert default["layers"][0]["area_ratio"] == 0.5
    assert default["ineligible"] == []
    assert default["dimcsim_version"] == dimcsim.__version__
    assert default["report_schema"] == metrics.REPORT_SCHEMA
    assert default["issue_interval"]["dc.p"] == 1
    assert custom["issue_interval"] == dict(default["issue_interval"], **{"dc.p": 4})
    # the interval is the only header field that tells the two reports apart
    assert [k for k in default if default[k] != custom[k] and k != "layers"] == ["issue_interval"]


def test_simulate_missing_file_is_input_error(tmp_path, capsys):
    assert cli.main(["simulate", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "r.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_workload_is_input_error(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [])
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv")]) == 2
    assert "no layers" in capsys.readouterr().err


def test_simulate_malformed_layer_names_entry(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json",
                        [UNIT_LAYER, {"name": "broken", "kind": "conv",
                                      "ich": 0, "och": 1}])
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "layer 1" in err and "broken" in err


def test_rerun_is_byte_identical(tmp_path):
    wl = write_workload(tmp_path / "wl.json", [
        UNIT_LAYER,
        {"name": "mid", "kind": "conv", "ich": 16, "och": 40, "h": 6, "w": 6,
         "kh": 2, "kw": 2, "padding": 1}])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", wl, "-o", str(a)]) == 0
    assert cli.main(["simulate", wl, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_does_not_change_cycles(tmp_path):
    layers = [{"name": "small", "kind": "conv", "ich": 4, "och": 6, "h": 4, "w": 4,
               "kh": 2, "kw": 2}]
    wl = write_workload(tmp_path / "wl.json", layers)
    plain, verified = tmp_path / "p.csv", tmp_path / "v.csv"
    assert cli.main(["simulate", wl, "-o", str(plain)]) == 0
    assert cli.main(["simulate", wl, "--verify", "-o", str(verified)]) == 0
    assert plain.read_bytes() == verified.read_bytes()


def test_cycle_mismatch_still_writes_the_layer_trace(tmp_path):
    layer = cli.load_workload(write_workload(tmp_path / "wl.json", [UNIT_LAYER])).entries[0][1]
    lowering = mapper.lower(layer)
    walked = sim.execute(lowering.program).total_cycles
    path = tmp_path / "unit.csv"
    problem = cli._verify_layer("unit", lowering, sim.TimingModel(), walked + 1, path)
    assert problem == f"unit: extrapolated cycles {walked + 1} != walked cycles {walked}"
    trace = path.read_text().splitlines()
    assert trace[0] == "cycle,class,mnemonic" and any("dc.f" in line for line in trace[1:])


def test_huge_layer_simulates_timing_only(tmp_path, capsys):
    # lowering costs O(1) in the kernel group count, so a layer far too
    # large to execute functionally is still costed from its steady state
    wl = write_workload(tmp_path / "wl.json", [dict(UNIT_LAYER, och=10**30)])
    out = tmp_path / "r.csv"
    assert cli.main(["simulate", wl, "-o", str(out)]) == 0
    assert "1 layer(s) simulated" in capsys.readouterr().out
    assert out.read_text().splitlines()[1].startswith(f"unit,{2 * 10**30},")


@pytest.mark.parametrize("och", [10**12, 10**30])
def test_huge_layer_verify_is_input_error(tmp_path, capsys, och):
    # 10**12 kernels fail to allocate, 10**30 exceed what numpy can index;
    # either way the functional run is refused before it starts
    wl = write_workload(tmp_path / "wl.json", [dict(UNIT_LAYER, name="huge", och=och)])
    assert cli.main(["simulate", wl, "--verify", "-o", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "'huge'" in err and "bytes" in err, err


def test_builtin_resnet50_workload_parses():
    wl = cli.load_workload("resnet50")
    assert wl.network == "resnet50"
    assert len(wl.entries) == 54
    names = [n for n, _ in wl.entries]
    assert names[0] == "conv1" and names[-1] == "fc1000"
    kinds = {layer.kind for _, layer in wl.entries}
    assert kinds == {"conv", "fc"}


def test_sweep_tiling_points(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "tiling", "--points", "32,64,128,256",
                     "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [1, 1, 2, 4]   # tiling factor
    assert all(float(r[5]) > 1 for r in rows)


def test_sweep_grouping_points(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "grouping", "--points", "16,32,64",
                     "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [1, 1, 2]      # group count
    assert all(float(r[5]) > 1 for r in rows)


def test_sweep_rejects_bad_points(tmp_path, capsys):
    assert cli.main(["sweep", "tiling", "--points", "0,8",
                     "-o", str(tmp_path / "s.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_asm_disasm_files(tmp_path):
    src = tmp_path / "prog.s"
    src.write_text("dl.m vs1=4 nvec=2 sec=0 mask=0b0011 m_row=7\n"
                   "dc.f vs1=1 vd=2 sh=0 dh=1 m_row=3 bidx=2\n")
    binary = tmp_path / "prog.bin"
    listing = tmp_path / "prog.dis"
    assert cli.main(["asm", str(src), "-o", str(binary)]) == 0
    assert binary.stat().st_size == 8
    assert cli.main(["disasm", str(binary), "-o", str(listing)]) == 0
    assert listing.read_text() == src.read_text()


def test_asm_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.s"
    src.write_text("dl.i vs1=99 nvec=1 sec=0 mask=1\n")
    assert cli.main(["asm", str(src), "-o", str(tmp_path / "x.bin")]) == 2
    assert "vs1" in capsys.readouterr().err


# -- malformed timing and report options ------------------------------------

def test_timing_table_unknown_kind_is_input_error(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    table = tmp_path / "timing.json"
    table.write_text(json.dumps({"latency": {"dcp": 40}}))
    assert cli.main(["simulate", wl, "--timing", str(table),
                     "-o", str(tmp_path / "r.csv")]) == 2
    assert "dcp" in capsys.readouterr().err


def test_timing_table_non_integer_cycles_are_input_errors(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    table = tmp_path / "timing.json"
    for doc, key in (({"latency": {"dc.p": 2.5}}, "dc.p"),
                     ({"issue_interval": {"vload": True}}, "vload"),
                     ({"memory_latency": "8"}, "memory_latency")):
        table.write_text(json.dumps(doc))
        assert cli.main(["sweep", "tiling", "--points", "32", "--timing", str(table),
                         "-o", str(tmp_path / "s.csv")]) == 2
        assert key in capsys.readouterr().err


def test_non_finite_freq_and_area_ratio_are_input_errors(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    out = tmp_path / "r.csv"
    for option, key in ((["--freq", "nan"], "freq_hz"), (["--freq", "inf"], "freq_hz"),
                        (["--area-ratio", "nan"], "--area-ratio")):
        assert cli.main(["simulate", wl, "-o", str(out)] + option) == 2
        assert key in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["sweep", "grouping", "--freq", "nan", "-o", str(tmp_path / "s.csv")]) == 2


def test_freq_goes_through_timing_validation(tmp_path, capsys):
    # no layer is simulated, so only the timing model can reject the clock
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER], default_bits=8)
    assert cli.main(["simulate", wl, "--freq", "0", "-o", str(tmp_path / "r.csv")]) == 2
    assert "freq_hz" in capsys.readouterr().err


# -- malformed workload files ------------------------------------------------

def _rejected(tmp_path, capsys, layers, *expected):
    wl = write_workload(tmp_path / "wl.json", layers)
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err


def test_workload_non_integer_field_is_input_error(tmp_path, capsys):
    _rejected(tmp_path, capsys, [UNIT_LAYER, dict(UNIT_LAYER, name="frac", ich=4.5)],
              "layer 1 (frac)", "ich")


def test_workload_boolean_bits_is_input_error(tmp_path, capsys):
    _rejected(tmp_path, capsys, [dict(UNIT_LAYER, precision={"bits": True})],
              "layer 0 (unit)", "bits")


def test_workload_unknown_layer_key_is_input_error(tmp_path, capsys):
    _rejected(tmp_path, capsys, [dict(UNIT_LAYER, chans=8)], "layer 0 (unit)", "chans")


def test_workload_duplicate_layer_name_is_input_error(tmp_path, capsys):
    _rejected(tmp_path, capsys, [UNIT_LAYER, UNIT_LAYER], "layer 1 (unit)", "duplicate")


def test_workload_empty_layer_name_is_input_error(tmp_path, capsys):
    _rejected(tmp_path, capsys, [UNIT_LAYER, dict(UNIT_LAYER, name="")], "layer 1", "empty")


def test_workload_non_string_network_is_input_error(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER], network=["x"])
    out = tmp_path / "r.json"
    assert cli.main(["simulate", wl, "--format", "json", "-o", str(out)]) == 2
    assert "network" in capsys.readouterr().err
    assert not out.exists()


def test_trace_outside_directory_is_input_error(tmp_path, capsys):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER, dict(UNIT_LAYER, name="../escaped")])
    tdir = tmp_path / "out" / "sub"
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv"),
                     "--trace", str(tdir)]) == 2
    assert "../escaped" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["simulate", "resnet50"], ["sweep", "tiling"],
                                  ["sweep", "grouping"]], ids=lambda argv: argv[1])
def test_default_reports_match_pinned_sha256(tmp_path, argv):
    # a changed report is a model change and must be deliberate
    out = tmp_path / "report.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[argv[1]]


def test_binding_table_reports_match_pinned_sha256(tmp_path):
    table = tmp_path / "timing.json"
    table.write_text(json.dumps(BINDING_TABLE))
    out = tmp_path / "report.csv"
    assert cli.main(["simulate", "resnet50", "--timing", str(table), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BINDING_SHA256["resnet50"]
    wl = tmp_path / "small.json"
    wl.write_text(json.dumps({"network": "small", "layers": [UNTILED_LAYER]}))
    tdir = tmp_path / "traces"
    assert cli.main(["simulate", str(wl), "--timing", str(table), "-o", str(tmp_path / "r.csv"),
                     "--trace", str(tdir)]) == 0
    trace = (tdir / "untiled.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == BINDING_SHA256["untiled"]
