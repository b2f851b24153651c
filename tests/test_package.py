"""The package surface, and which commands load numpy.

The numpy checks run in fresh interpreters: pytest has numpy loaded long
before any test runs, so an import left at module level would never show
in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dimcsim

# the source tree that holds the dimcsim under test
_PACKAGE_ROOT = str(Path(dimcsim.__file__).resolve().parents[1])

# after each step, whether numpy is loaded; printed as one JSON line
_TIMING_ONLY_SCRIPT = """
import json, sys
loaded = {}
import dimcsim
loaded["import dimcsim"] = "numpy" in sys.modules
from dimcsim import cli
loaded["import dimcsim.cli"] = "numpy" in sys.modules
out = sys.argv[1]
for argv in (["simulate", "resnet50", "-o", out + "/report.csv"],
             ["sweep", "tiling", "-o", out + "/sweep.csv"],
             ["asm", out + "/prog.s", "-o", out + "/prog.bin"],
             ["disasm", out + "/prog.bin", "-o", out + "/prog.dis"]):
    code = cli.main(argv)
    loaded[" ".join(argv[:2])] = "numpy" in sys.modules if code == 0 else f"exit {code}"
print(json.dumps(loaded))
"""

_MAIN_SCRIPT = "import sys; from dimcsim import cli; sys.exit(cli.main(sys.argv[1:]))"


def _fresh_python(script: str, *args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_PACKAGE_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_timing_only_commands_load_no_numpy(tmp_path):
    (tmp_path / "prog.s").write_text("dl.m vs1=4 nvec=2 sec=0 mask=0b0011 m_row=7\n"
                                     "dc.f vs1=1 vd=2 sh=0 dh=1 m_row=3 bidx=2\n")
    proc = _fresh_python(_TIMING_ONLY_SCRIPT, tmp_path, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {step: False for step in (
        "import dimcsim", "import dimcsim.cli", "simulate resnet50", "sweep tiling",
        "asm " + str(tmp_path / "prog.s"), "disasm " + str(tmp_path / "prog.bin"))}
    assert (tmp_path / "prog.dis").read_text() == (tmp_path / "prog.s").read_text()


def test_verify_in_a_fresh_interpreter_loads_what_it_needs(tmp_path):
    layer = {"name": "conv", "kind": "conv", "ich": 8, "och": 6, "h": 4, "w": 4,
             "kh": 3, "kw": 3, "padding": 1}
    workload = tmp_path / "wl.json"
    workload.write_text(json.dumps({"network": "one", "layers": [layer]}))
    proc = _fresh_python(_MAIN_SCRIPT, "simulate", workload, "--verify",
                         "-o", tmp_path / "report.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "1 layer(s) simulated" in proc.stdout


@pytest.mark.parametrize("name", dimcsim.__all__)
def test_every_exported_name_is_its_defining_modules_object(name):
    # DimcTile among them, which the package resolves only when asked
    obj = getattr(dimcsim, name)
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        dimcsim.no_such_name
