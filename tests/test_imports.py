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
          "--model", '{"family":"rayleigh","beta":1,"eta":3}', "--rho-list", "4,6",
          "--plot"],
         "analytic_components.csv"),
        (["phase-map", "--rho-list", "0.5,1", "--length-list", "3,5", "--plot"], "phase_map.csv"),
        (["validate"], "validation.csv"),
    ],
    ids=["analytic", "phase-map", "validate"],
)
def test_closed_form_commands_load_no_scipy(tmp_path, argv, output):
    argv = argv + ["--out", "out"]
    code = f"from prismnet.cli import main\nmain({argv!r}, standalone_mode=False)"
    assert scipy_loaded_by(code, cwd=tmp_path) == []
    assert (tmp_path / "out" / output).is_file()


# The one scipy module the simulator loads: its compiled distance kernel.
DISTANCE_KERNEL = ["scipy.spatial._distance_pybind"]


def test_simulator_loads_pdist_before_any_pool_forks():
    # Pool workers fork from the parent with the kernel loaded, and nothing
    # of scipy.spatial's package (kd-tree, qhull, sparse, linalg) comes with it.
    assert scipy_loaded_by("import prismnet.simulator") == DISTANCE_KERNEL


@pytest.mark.parametrize(
    "command, output", [("simulate", "simulation.csv"), ("compare", "compare.csv")],
    ids=["simulate", "compare"],
)
def test_simulation_commands_load_only_the_distance_kernel(tmp_path, command, output):
    argv = [command, "--domain", '{"kind":"house","L":2}',
            "--model", '{"family":"mimo_mrc_2x2","beta":1}', "--rho-list", "1,2",
            "--trials", "4", "--threads", "1", "--plot", "--out", "out"]
    code = f"from prismnet.cli import main\nmain({argv!r}, standalone_mode=False)"
    assert scipy_loaded_by(code, cwd=tmp_path) == DISTANCE_KERNEL
    assert (tmp_path / "out" / output).is_file()


@pytest.mark.parametrize("first", ["scipy.spatial.distance", "prismnet.simulator"])
def test_one_distance_module_in_either_import_order(first):
    # Whichever loads it first, scipy.spatial.distance and the simulator share
    # one extension module and write the same squared distances.
    code = f"""
import importlib, sys
import numpy as np
importlib.import_module({first!r})
from scipy.spatial import distance
from prismnet import simulator
module = sys.modules["scipy.spatial._distance_pybind"]
assert distance._distance_pybind is module
assert simulator._pdist_sqeuclidean is module.pdist_sqeuclidean
X = np.random.default_rng(5).random((156, 3))
d2 = np.empty(156 * 155 // 2)
simulator.run_trial(X, d2)
assert np.array_equal(d2, distance.pdist(X, "sqeuclidean"))
"""
    assert "scipy.spatial.distance" in scipy_loaded_by(code)


def test_missing_distance_kernel_names_scipy_and_the_paths():
    code = """
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
try:
    import prismnet.simulator
except ImportError as exc:
    message = str(exc)
else:
    raise AssertionError("prismnet.simulator imported without its distance kernel")
from importlib.metadata import version
assert message.startswith(f"scipy {version('scipy')} has no scipy.spatial._distance_pybind"), message
assert message.endswith("_distance_pybind.missing"), message
"""
    assert scipy_loaded_by(code) == []


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
    assert "scipy.integrate" not in scipy_loaded_by(code)
