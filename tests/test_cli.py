import csv
import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dimcsim
from dimcsim import cli, isa, mapper, metrics, sim

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
    outcome = sim.execute(lowering.program)
    walked = outcome.total_cycles
    path = tmp_path / "unit.csv"
    off = dataclasses.replace(outcome, total_cycles=walked + 1)
    problem = cli._verify_layer("unit", lowering, sim.TimingModel(), off, path)
    assert problem == f"unit: extrapolated cycles {walked + 1} != walked cycles {walked}"
    trace = path.read_text().splitlines()
    assert trace[0] == "cycle,class,mnemonic" and any("dc.f" in line for line in trace[1:])


def test_verify_names_the_class_a_walk_books_cycles_to(tmp_path, capsys, monkeypatch):
    # a walk that moves one cycle from storing to loading keeps its total,
    # so only the per-class comparison catches it
    run_layer = sim.run_layer

    def misbooked(*args, **kwargs):
        outcome, output = run_layer(*args, **kwargs)
        cycles = dict(outcome.cycles_by_class)
        cycles["storing"] -= 1
        cycles["loading"] += 1
        return dataclasses.replace(outcome, cycles_by_class=cycles), output

    monkeypatch.setattr(sim, "run_layer", misbooked)
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    assert cli.main(["simulate", wl, "--verify", "-o", str(tmp_path / "r.csv")]) == 1
    booked = sim.execute(mapper.lower(cli.load_workload(wl).entries[0][1]).program)
    loading = booked.cycles_by_class["loading"]
    assert (f"verification failed: unit: extrapolated loading cycles {loading} "
            f"!= walked loading cycles {loading + 1}") in capsys.readouterr().err


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


@pytest.mark.parametrize("name", ["../escaped", "a\x00b"], ids=["escaped", "nul-byte"])
def test_trace_outside_directory_is_input_error(tmp_path, capsys, name):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER, dict(UNIT_LAYER, name=name)])
    tdir = tmp_path / "out" / "sub"
    assert cli.main(["simulate", wl, "-o", str(tmp_path / "r.csv"),
                     "--trace", str(tdir)]) == 2
    assert f"layer {name!r}" in capsys.readouterr().err
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


# -- input files, non-finite metrics and named entries ------------------------

DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("which, content", [
    ("workload", DEEP.encode()),
    ("timing", DEEP.encode()),
    ("timing", b'{"latency":\n'),
    ("workload", b"\xff\xfe{}"),
    ("timing", b"\xff\xfe{}"),
], ids=["deep-workload", "deep-timing", "truncated-timing", "latin-workload", "latin-timing"])
def test_unreadable_json_file_is_input_error_naming_it(tmp_path, capsys, which, content):
    wl = write_workload(tmp_path / "wl.json", [UNIT_LAYER])
    bad = tmp_path / f"bad-{which}.json"
    bad.write_bytes(content)
    argv = ["simulate", wl, "--timing", str(bad)] if which == "timing" else ["simulate", str(bad)]
    assert cli.main(argv + ["-o", str(tmp_path / "r.csv")]) == 2
    assert f"error: {bad}: not a valid JSON file" in capsys.readouterr().err


def test_timing_table_error_names_the_file(tmp_path, capsys):
    table = tmp_path / "timing.json"
    table.write_text(json.dumps([1]))
    assert cli.main(["sweep", "tiling", "--points", "32", "--timing", str(table),
                     "-o", str(tmp_path / "s.csv")]) == 2
    assert f"error: {table}: timing table must be a JSON object" in capsys.readouterr().err


def test_workload_missing_channel_key_is_input_error(tmp_path, capsys):
    layer = {k: v for k, v in UNIT_LAYER.items() if k != "ich"}
    _rejected(tmp_path, capsys, [layer], "layer 0 (unit)", "missing keys ['ich']")


@pytest.mark.parametrize("option, layer", [
    (["--freq", "1e308"], UNIT_LAYER),
    (["--area-ratio", "1e308"], UNTILED_LAYER),
    ([], dict(UNIT_LAYER, h=10**160, w=10**160)),
], ids=["freq", "area-ratio", "huge-layer"])
def test_non_finite_metric_is_input_error_naming_the_layer(tmp_path, capsys, option, layer):
    wl = write_workload(tmp_path / "wl.json", [layer])
    out = tmp_path / "r.csv"
    assert cli.main(["simulate", wl, "-o", str(out)] + option) == 2
    assert f"error: layer {layer['name']!r}: " in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_sweep_metric_names_the_point(tmp_path, capsys):
    assert cli.main(["sweep", "grouping", "--points", "16,32", "--freq", "1e308",
                     "-o", str(tmp_path / "s.csv")]) == 2
    assert "error: sweep point 16 at --size 16: gops" in capsys.readouterr().err


def test_layer_name_with_a_comma_is_quoted_in_the_report(tmp_path):
    wl = write_workload(tmp_path / "wl.json", [dict(UNIT_LAYER, name='a,"b"')])
    out = tmp_path / "r.csv"
    assert cli.main(["simulate", wl, "-o", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith('"a,""b""",2,')


def test_disasm_names_the_bad_word(tmp_path, capsys):
    words = isa.assemble("dc.p vs1=1 vd=2 sh=0 dh=0 m_row=3\n") + [0xFFFFFFFF]
    binary = tmp_path / "prog.bin"
    binary.write_bytes(isa.pack_words(words))
    assert cli.main(["disasm", str(binary)]) == 2
    assert "error: word 1 (byte offset 4): opcode" in capsys.readouterr().err


@pytest.mark.parametrize("command, data, expected", [
    ("asm", b"\xff", "not UTF-8 text ('utf-8' codec can't decode byte 0xff"),
    ("disasm", b"abc", "stream length 3 is not a multiple of 4"),
], ids=["asm-not-utf8", "disasm-length"])
def test_unreadable_stream_error_names_the_file(tmp_path, capsys, command, data, expected):
    src = tmp_path / "in"
    src.write_bytes(data)
    assert cli.main([command, str(src), "-o", str(tmp_path / "out")]) == 2
    assert f"error: {src}: {expected}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["--size", "0"], "sweep point 32 at --size 0: h must be >= 1"),
    (["--points", "32,3000"], "sweep point 3000 at --size 16: kernel needs 47 rows"),
], ids=["size", "point"])
def test_sweep_error_names_the_option_and_point(tmp_path, capsys, argv, expected):
    assert cli.main(["sweep", "tiling", *argv, "-o", str(tmp_path / "s.csv")]) == 2
    assert f"error: {expected}" in capsys.readouterr().err


# -- malformed input as a property --------------------------------------------
#
# One mutation of a valid input per example, run timing-only through
# cli.main: a workload or timing document edited at one path (a value
# replaced, a key deleted or added), the file replaced by raw bytes or cut
# short, or one option of the simulate or sweep argv replaced.

@dataclasses.dataclass(frozen=True)
class Nested:
    """A value nested ``depth`` lists deep, written into the file as text."""

    depth: int


@dataclasses.dataclass(frozen=True)
class Cut:
    """The valid file cut after ``keep`` characters."""

    keep: int


DELETE = "<delete the key>"

VALID_WORKLOAD = {"network": "prop", "default_precision": {"bits": 4, "signed": True},
                  "layers": [dict(UNIT_LAYER), dict(UNTILED_LAYER)]}
VALID_TABLE = {"memory_latency": 8, "freq_hz": 5e8, "latency": {"dc.p": 4, "vload": 8},
               "issue_interval": {"dc.f": 2}}
FLAGS = {"simulate": ("--freq", "--area-ratio", "--format"),
         "sweep": ("mode", "--points", "--size", "--freq")}


def _paths(doc, prefix=()):
    """Every path into a document, plus a new key in every object."""
    yield prefix
    if isinstance(doc, dict):
        yield prefix + ("extra",)
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _edited(doc, path, value):
    """The document as JSON text, with ``value`` at ``path``."""
    doc = json.loads(json.dumps(doc))
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    nested = []

    def placeholder(value):
        nested.append(value.depth)
        return "<nested>"

    text = json.dumps(doc, default=placeholder)
    for depth in nested:
        text = text.replace('"<nested>"', "[" * depth + "]" * depth, 1)
    return text


_values = st.one_of(
    st.booleans(), st.none(), st.integers(-2**70, 2**70),
    st.sampled_from([-1, 0, 2**63, 10**160, -10**160]),
    st.sampled_from([1e308, -1e308, 0.5, 1e-320, math.inf, math.nan]),
    st.text(max_size=4), st.sampled_from(["", "../up", 'a,"b"', "é\n", "x" * 200]),
    st.lists(st.integers(0, 4), max_size=2),
    st.dictionaries(st.sampled_from(["dc.p", "bits", "h"]), st.integers(-1, 4), max_size=2),
    st.builds(Nested, st.sampled_from([3, 200_000])),
    st.just(DELETE))
_whole_file = st.one_of(st.builds(Cut, st.integers(0, 60)),
                        st.sampled_from([b"", b"\xff\xfe{}", b"{}", b"[]", b"null"]))
_options = st.one_of(
    st.sampled_from(["1e308", "-1", "0", "1", "nan", "inf", "abc", "", "3000", "32,3000",
                     "8,,8", "1e-320", "9" * 200, "tiling", "grouping", "json"]),
    st.integers(-2**70, 2**70).map(str), st.floats().map(repr))


@st.composite
def _mutations(draw):
    target = draw(st.sampled_from(["workload", "timing", "argv"]))
    command = "simulate" if target == "workload" else draw(st.sampled_from(list(FLAGS)))
    if target == "argv":
        return command, target, draw(st.sampled_from(FLAGS[command])), draw(_options)
    doc = VALID_WORKLOAD if target == "workload" else VALID_TABLE
    if draw(st.integers(0, 9)) == 0:
        return command, target, (), draw(_whole_file)
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(_values)
    if value == DELETE and (not path or path[-1] == "extra"):
        value = None
    return command, target, path, value


def _cells(path, fmt):
    """The report's numeric cells."""
    if fmt == "json":
        return [v for row in json.loads(path.read_text())["layers"]
                for k, v in row.items() if k != "layer"]
    rows = list(csv.reader(path.read_text().splitlines()))
    width = len(rows[0])
    assert all(len(row) == width for row in rows)
    # a simulate report leads with the layer name
    skip = 1 if rows[0][0] == "layer" else 0
    return [float(cell) for row in rows[1:] for cell in row[skip:]]


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_mutations())
@example(mutation=("simulate", "workload", (), Nested(200_000)))
@example(mutation=("simulate", "timing", (), Cut(12)))
@example(mutation=("simulate", "workload", (), b"\xff\xfe{}"))
@example(mutation=("simulate", "argv", "--freq", "1e308"))
@example(mutation=("simulate", "argv", "--area-ratio", "1e308"))
@example(mutation=("simulate", "workload", ("layers", 1),
                   dict(UNTILED_LAYER, h=10**160, w=10**160)))
@example(mutation=("sweep", "argv", "--size", "0"))
@example(mutation=("sweep", "argv", "--points", "32,3000"))
@example(mutation=("simulate", "workload", ("layers", 0, "ich"), DELETE))
@example(mutation=("simulate", "workload", ("layers", 0, "name"), 'a,"b"'))
def test_malformed_input_is_an_input_error_naming_the_entry(tmp_path, capsys, mutation):
    command, target, where, value = mutation
    files = {"workload": tmp_path / "wl.json", "timing": tmp_path / "timing.json"}
    for name, doc in (("workload", VALID_WORKLOAD), ("timing", VALID_TABLE)):
        text = json.dumps(doc)
        if name == target and where == () and isinstance(value, bytes):
            files[name].write_bytes(value)
        elif name == target and where == () and isinstance(value, Cut):
            files[name].write_text(text[:value.keep])
        else:
            files[name].write_text(_edited(doc, where, value) if name == target else text)
    out = tmp_path / "report"
    out.unlink(missing_ok=True)
    options = {"--freq": None, "--area-ratio": None, "--format": "csv"}
    if command == "simulate":
        argv = ["simulate", str(files["workload"])]
    else:
        options = {"mode": "tiling", "--points": "32,64", "--size": "4", "--freq": None}
        argv = ["sweep"]
    if target == "argv":
        options[where] = value
    if command == "sweep":
        argv.append(options.pop("mode"))
    for flag, option in options.items():
        if option is not None:
            argv.append(f"{flag}={option}")
    if target == "timing":
        argv += ["--timing", str(files["timing"])]
    argv += ["-o", str(out)]
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected an option
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 0:
        assert all(math.isfinite(cell) for cell in _cells(out, options.get("--format")))
        return
    named = {"workload": str(files["workload"]), "timing": str(files["timing"]),
             "argv": "mode" if where == "mode" else where}[target]
    # a metric that is not finite names the layer or sweep point it belongs to
    assert any(token in err for token in (named, "error: layer '", "error: sweep point ")), err
