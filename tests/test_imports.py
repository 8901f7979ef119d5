"""Each command loads only the scipy it runs.

Pytest's own ``filterwarnings`` setting imports scipy.integrate, so every
check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Printed last by every script: the scipy modules the interpreter loaded.
REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_loaded_by(code: str, cwd: Path = ROOT) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", code + REPORT], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert scipy_loaded_by("import prismnet.cli") == []


@pytest.mark.parametrize(
    "argv, output",
    [
        (["analytic", "--domain", '{"kind":"house","L":5}',
          "--model", '{"family":"mimo_mrc_2x2","beta":1}', "--rho-list", "0.5,1", "--plot"],
         "analytic_components.csv"),
        (["phase-map", "--rho-list", "0.5,1", "--length-list", "3,5", "--plot"], "phase_map.csv"),
    ],
    ids=["analytic", "phase-map"],
)
def test_closed_form_commands_load_no_scipy(tmp_path, argv, output):
    argv = argv + ["--out", "out"]
    code = f"from prismnet.cli import main\nmain({argv!r}, standalone_mode=False)"
    assert scipy_loaded_by(code, cwd=tmp_path) == []
    assert (tmp_path / "out" / output).is_file()


def test_simulator_loads_pdist_before_any_pool_forks():
    # Pool workers fork from the parent: one that imported scipy.spatial
    # itself would pay its import once per worker.
    loaded = scipy_loaded_by("import prismnet.simulator")
    assert "scipy.spatial.distance" in loaded
    assert "scipy.integrate" not in loaded


def test_lazy_names_resolve():
    code = """
import prismnet
from prismnet import quadrature, simulator, SimConfig, estimate
from prismnet import *
assert prismnet.quadrature is quadrature
assert quadrature.validation_suite
assert prismnet.SimConfig is SimConfig is simulator.SimConfig
assert estimate is simulator.estimate
assert prismnet.BACKEND == "python"
try:
    prismnet.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("prismnet.no_such_name resolved")
"""
    assert "scipy.integrate" in scipy_loaded_by(code)
