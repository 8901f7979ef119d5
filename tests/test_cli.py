"""CLI subcommands: outputs, determinism, config precedence, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prismnet import analytic
from prismnet.channel import mimo_mrc_2x2
from prismnet.cli import main
from prismnet.geometry import build_house

from test_analytic import rotated_square_prism

ROOT = Path(__file__).resolve().parents[1]
HOUSE = '{"kind":"house","L":5.0}'
MODEL = '{"family":"mimo_mrc_2x2","beta":1.0}'

# Valid flags of every command; the bad-input cases below change one thing.
VALID_FLAGS = {
    "analytic": {"--domain": HOUSE, "--model": MODEL, "--rho-list": "1.0"},
    "simulate": {
        "--domain": '{"kind":"house","L":2.0}',
        "--model": MODEL,
        "--rho-list": "1.0",
        "--trials": "10",
        "--threads": "1",
    },
    "phase-map": {"--rho-list": "1.0", "--length-list": "3"},
    "validate": {},
}
VALID_FLAGS["compare"] = VALID_FLAGS["simulate"]
ALL_COMMANDS = tuple(VALID_FLAGS)
SWEEP_COMMANDS = ("analytic", "simulate", "compare", "phase-map")
SPEC_COMMANDS = ("analytic", "simulate", "compare")
SIM_COMMANDS = ("simulate", "compare")

# (id, commands, flags changed (None drops one), job file content or None, message fragment)
BAD_INPUTS = [
    ("unknown-key", ALL_COMMANDS, {}, {"bogus": 1}, "unknown key 'bogus'"),
    ("config-not-object", ALL_COMMANDS, {}, [1], "JSON object"),
    ("rho-list-as-list", SWEEP_COMMANDS, {}, {"rho_list": [1, 2]}, "'rho_list'"),
    ("trials-as-string", SIM_COMMANDS, {}, {"trials": "10"}, "'trials'"),
    ("trials-as-float", SIM_COMMANDS, {}, {"trials": 2.5}, "'trials'"),
    ("trials-zero-in-file", SIM_COMMANDS, {}, {"trials": 0}, "--trials"),
    ("bad-domain-object", SPEC_COMMANDS, {"--domain": None}, {"domain_spec": {"kind": "torus"}},
     "torus"),
    ("threads-zero", SIM_COMMANDS, {"--threads": "0"}, None, "--threads"),
    ("threads-negative", SIM_COMMANDS, {"--threads": "-1"}, None, "--threads"),
    ("seed-negative", SIM_COMMANDS, {"--seed": "-1"}, None, "--seed"),
    ("analytic-seed-flag", ("analytic",), {"--seed": "3"}, None, "--seed"),
    ("analytic-seed-key", ("analytic",), {}, {"seed": 3}, "unknown key 'seed'"),
    ("decreasing-rho", ("analytic",), {"--rho-list": "1,0.5"}, None, "increasing"),
    ("model-beta-nan", SPEC_COMMANDS, {"--model": '{"family":"mimo_mrc_2x2","beta":NaN}'}, None,
     "beta"),
    ("model-beta-inf", SPEC_COMMANDS,
     {"--model": '{"family":"mimo_mrc_2x2","beta":Infinity}'}, None, "beta"),
    ("hard-disk-r0-inf", SIM_COMMANDS, {"--model": '{"family":"hard_disk","r0":Infinity}'}, None,
     "range"),
    ("phase-map-beta-nan", ("phase-map",), {"--beta": "nan"}, None, "beta"),
    ("house-L-nan", SPEC_COMMANDS, {"--domain": '{"kind":"house","L":NaN}'}, None, "side length"),
    ("house-L-text", SPEC_COMMANDS, {"--domain": '{"kind":"house","L":"x"}'}, None, "not a number"),
    ("prism-base-text", SPEC_COMMANDS,
     {"--domain": '{"kind":"prism","base":"x","height":1}'}, None, "not a number"),
    ("house-extra-field", SPEC_COMMANDS, {"--domain": '{"kind":"house","L":5,"height":3}'}, None,
     "unknown field(s): height"),
    ("mimo-extra-field", SPEC_COMMANDS, {"--model": '{"family":"mimo_mrc_2x2","beta":1,"r0":9}'},
     None, "unknown field(s): r0"),
    ("hard-disk-r0-tiny", SIM_COMMANDS, {"--model": '{"family":"hard_disk","r0":1e-200}'}, None,
     "too small"),
    # A strictly convex base whose vertex angle at (1, 0) is pi - 1e-9: valid
    # geometry, but the closed form diverges there.
    ("vertex-angle-near-pi", ("analytic", "compare"),
     {"--domain": '{"kind":"prism","base":[[0,0],[1,0],[2,1e-9],[2,1],[0,1]],"height":1}'},
     None, "dihedral angle"),
    # Jobs too large to run are refused before anything is allocated.
    ("rho-range-too-long", SWEEP_COMMANDS, {"--rho-list": None, "--rho": "0.1:3:1e-12"}, None,
     "more than 1000000 values"),
    ("house-L1000-pairs", SIM_COMMANDS, {"--domain": '{"kind":"house","L":1000}'}, None,
     "physical memory"),
    ("rho-1e7-pairs", SIM_COMMANDS, {"--rho-list": "1e7"}, None, "physical memory"),
    ("last-rho-pairs", SIM_COMMANDS, {"--rho-list": "1,1e7"}, None, "physical memory"),
    # Sizes whose volume or surface area overflows a float.
    ("prism-base-1e160", ("analytic", "simulate"),
     {"--domain": '{"kind":"prism","base":[[0,0],[1e160,0],[0,1e160]],"height":1}'}, None,
     "too large"),
    ("house-L-1e120", ("analytic", "simulate"), {"--domain": '{"kind":"house","L":1e120}'}, None,
     "too large"),
    ("half-cylinder-r-1e200", ("analytic", "simulate"),
     {"--domain": '{"kind":"half_cylinder","r":1e200,"h":1}'}, None, "too large"),
    # Sizes whose volume, surface area or base cross products underflow.
    ("house-L-1e-200", ("analytic", "simulate"), {"--domain": '{"kind":"house","L":1e-200}'},
     None, "too small"),
    ("prism-base-1e-200", ("analytic", "simulate"),
     {"--domain": '{"kind":"prism","base":[[0,0],[1e-200,0],[0,1e-200]],"height":1}'}, None,
     "too small"),
    ("half-cylinder-r-1e-200", ("analytic", "simulate"),
     {"--domain": '{"kind":"half_cylinder","r":1e-200,"h":1}'}, None, "too small"),
]


@pytest.fixture
def runner():
    return CliRunner()


def assert_one_line_config_error(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output
    assert len(res.output.strip().splitlines()) == 1, res.output


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if not r or not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestAnalytic:
    def test_components_csv(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1.0",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "analytic_components.csv")
        assert header == [
            "rho", "U", "F", "E1", "E2", "C1", "C2", "total", "p_fc", "valid", "clamped",
        ]
        b = analytic.assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 1.0)
        assert_allclose(float(rows[0][header.index("total")]), b.p_out_raw, rtol=1e-12)
        assert_allclose(float(rows[0][header.index("C1")]), b.group_values()["C1"], rtol=1e-12)
        assert rows[0][-2:] == [str(b.valid), str(b.clamped)] == ["True", "False"]

    def test_clamped_and_invalid_rows(self, runner, tmp_path):
        # At rho = 0.3 the house's outage sum exceeds 1.
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "0.3,1",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "analytic_components.csv")
        assert [(r[header.index("valid")], r[header.index("clamped")]) for r in rows] == [
            ("False", "True"), ("True", "False"),
        ]

    def test_underflowing_terms_warn_nothing(self, tmp_path):
        # rho * rate overflows, so every term is exp(-inf) = 0; the command
        # prints no RuntimeWarning, as a plain run shows it on stderr.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        res = subprocess.run(
            [sys.executable, "-m", "prismnet.cli", "analytic", "--domain",
             '{"kind":"house","L":5}', "--model", '{"family":"mimo_mrc_2x2","beta":1}',
             "--rho-list", "1e307", "--plot", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        header, rows = read_csv(tmp_path / "analytic_components.csv")
        assert rows == [["1e+307"] + ["0.0"] * 7 + ["1.0", "True", "False"]]
        _, long_rows = read_csv(tmp_path / "analytic_breakdown.csv")
        assert {r[5] for r in long_rows} == {"0.0"}

    def test_breakdown_csv_schema(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho", "0.5:1.0:0.25",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0
        header, rows = read_csv(tmp_path / "analytic_breakdown.csv")
        assert header == [
            "rho", "label", "multiplicity", "prefactor", "exponent_rate", "value", "p_out", "p_fc",
        ]
        assert sorted({r[0] for r in rows}) == ["0.5", "0.75", "1.0"]

    def test_deterministic_output(self, runner, tmp_path):
        args = ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "0.9,1.1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        a = (out1 / "analytic_components.csv").read_bytes()
        assert a == (out2 / "analytic_components.csv").read_bytes()

    def test_plot_does_not_change_csv(self, runner, tmp_path):
        args = ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1.0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2), "--plot"]).exit_code == 0
        assert (out2 / "analytic_components.svg").exists()
        assert (out1 / "analytic_components.csv").read_bytes() == (
            out2 / "analytic_components.csv"
        ).read_bytes()

    def test_components_columns_in_angle_order(self, runner, tmp_path):
        # 12-gon with distinct vertex angles: 13 edge and 12 corner classes,
        # whose columns run E1..E13 and C1..C12 in numeric order.
        angles = [0, 0.4, 0.9, 1.3, 1.9, 2.4, 2.8, 3.3, 3.9, 4.5, 5.0, 5.7]
        base = [[3.0 * math.cos(a), 2.0 * math.sin(a)] for a in angles]
        domain = json.dumps({"kind": "prism", "base": base, "height": 4.0})
        res = runner.invoke(
            main,
            ["analytic", "--domain", domain, "--model", MODEL, "--rho-list", "1.0",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, _ = read_csv(tmp_path / "analytic_components.csv")
        assert header == [
            "rho", "U", "F", *(f"E{i}" for i in range(1, 14)), *(f"C{i}" for i in range(1, 13)),
            "total", "p_fc", "valid", "clamped",
        ]

    @pytest.mark.parametrize("degrees", [0, 10, 30])
    def test_right_angle_class_one_column(self, runner, tmp_path, degrees):
        domain = json.dumps(rotated_square_prism(degrees).to_spec())
        res = runner.invoke(
            main,
            ["analytic", "--domain", domain, "--model", MODEL, "--rho-list", "1.0",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, _ = read_csv(tmp_path / "analytic_components.csv")
        assert header == ["rho", "U", "F", "E", "C", "total", "p_fc", "valid", "clamped"]

    def test_spec_from_file(self, runner, tmp_path):
        dom = tmp_path / "dom.json"
        dom.write_text(HOUSE)
        res = runner.invoke(
            main,
            ["analytic", "--domain", str(dom), "--model", MODEL, "--rho-list", "1.0",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0


class TestSimulate:
    def test_sweep_csv(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "--domain", '{"kind":"house","L":2.0}', "--model", MODEL,
             "--rho-list", "0.5,1.0", "--trials", "200", "--seed", "9",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "simulation.csv")
        assert header == [
            "rho", "N", "trials", "fc_count", "p_fc_hat", "std_err", "p_min_deg_hat", "wall_time_s",
        ]
        assert len(rows) == 2
        assert int(rows[0][2]) == 200
        payload = json.loads((tmp_path / "simulation.json").read_text())
        assert payload[0]["fc_count"] == int(rows[0][3])

    def test_seed_zero_is_kept(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "--domain", '{"kind":"house","L":2.0}', "--model", MODEL,
             "--rho-list", "1.0", "--trials", "20", "--seed", "0", "--threads", "1",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "simulation.json").read_text())
        assert payload[0]["seed"] == 0

    def test_plot_without_observed_outage(self, runner, tmp_path):
        # Every trial connects, so no point lies on the log P_out axis.
        res = runner.invoke(
            main,
            ["simulate", "--domain", '{"kind":"house","L":2}', "--model", MODEL,
             "--rho-list", "3", "--trials", "5", "--threads", "1", "--plot",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        _, rows = read_csv(tmp_path / "simulation.csv")
        assert rows[0][3] == "5"
        svg = ET.parse(tmp_path / "simulation.svg").getroot()
        assert svg.tag == "{http://www.w3.org/2000/svg}svg"
        assert "simulated outage" in [e.text for e in svg.iter()]

    def test_requires_trials(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1.0",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2


class TestCompare:
    def test_compare_csv(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["compare", "--domain", '{"kind":"house","L":2.0}', "--model", MODEL,
             "--rho-list", "0.8", "--trials", "300", "--out", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "compare.csv")
        assert header == [
            "rho", "N", "p_out_analytic", "p_out_sim", "std_err", "z_score", "trials", "fc_count",
            "valid", "clamped",
        ]
        assert len(rows) == 1
        b = analytic.assemble_pfc(build_house(2.0).features(), mimo_mrc_2x2(1.0), 0.8)
        assert rows[0][-2:] == [str(b.valid), str(b.clamped)]


class TestPhaseMap:
    def test_grid(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["phase-map", "--beta", "1.0", "--rho", "0.5:1.5:0.5", "--length", "3:5:1",
             "--out", str(tmp_path), "--plot"],
        )
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "phase_map.csv")
        assert header == ["rho", "L", "dominant_label"]
        assert len(rows) == 9
        for rho, L, label in rows:
            assert label == analytic.phase_map(1.0, [float(rho)], [float(L)])[0][2]
        assert (tmp_path / "phase_map.svg").exists()


class TestConfigAndErrors:
    def test_config_file_wins_with_warning(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"rho_list": "1.0", "out": str(tmp_path)}))
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "2.0",
             "--config", str(cfg)],
        )
        assert res.exit_code == 0, res.output
        assert "overrides" in res.output
        _, rows = read_csv(tmp_path / "analytic_components.csv")
        assert rows[0][0] == "1.0"

    def test_bad_domain_exit_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["analytic", "--domain", '{"kind":"torus"}', "--model", MODEL,
             "--rho-list", "1.0", "--out", str(tmp_path)],
        )
        assert res.exit_code == 2

    def test_bad_rho_range_exit_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho", "1.0:0.5:0.1",
             "--out", str(tmp_path)],
        )
        assert res.exit_code == 2

    def test_missing_required_exit_2(self, runner):
        assert runner.invoke(main, ["analytic", "--rho-list", "1.0"]).exit_code == 2

    def test_conflicting_sweeps_exit_2(self, runner):
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho", "0.5:1:0.1",
             "--rho-list", "1.0"],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "sweep", [["--rho-list", "nan"], ["--rho-list", "1.0,inf"], ["--rho", "nan:1:0.1"]]
    )
    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_non_finite_rho_exit_2(self, runner, tmp_path, command, sweep):
        trials = ["--trials", "10"] if command == "simulate" else []
        res = runner.invoke(
            main,
            [command, "--domain", HOUSE, "--model", MODEL, *sweep, *trials, "--out", str(tmp_path)],
        )
        assert_one_line_config_error(res)
        assert not list(tmp_path.iterdir())

    def test_model_without_closed_form_exit_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", '{"family":"rayleigh","beta":1.0}',
             "--rho-list", "1.0", "--out", str(tmp_path)],
        )
        assert_one_line_config_error(res)
        assert "closed-form" in res.output

    @pytest.mark.parametrize("flag", ["--domain", "--model", "--config"])
    def test_missing_file_exit_2(self, runner, tmp_path, flag):
        specs = {"--domain": HOUSE, "--model": MODEL}
        specs[flag] = str(tmp_path / "missing.json")
        argv = ["analytic", "--rho-list", "1.0", "--out", str(tmp_path)]
        res = runner.invoke(main, argv + [x for item in specs.items() for x in item])
        assert_one_line_config_error(res)
        assert "missing.json" in res.output

    @pytest.mark.parametrize(
        "command, flags, config, message",
        [
            pytest.param(cmd, flags, config, message, id=f"{case}-{cmd}")
            for case, commands, flags, config, message in BAD_INPUTS
            for cmd in commands
        ],
    )
    def test_bad_input_exit_2(self, runner, tmp_path, command, flags, config, message):
        argv = [command]
        for flag, value in {**VALID_FLAGS[command], **flags}.items():
            argv += [flag, value] if value is not None else []
        if config is not None:
            (tmp_path / "job.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "job.json")]
        res = runner.invoke(main, argv + ["--out", str(tmp_path / "out")])
        assert_one_line_config_error(res)
        assert message in res.output
        assert not (tmp_path / "out").exists()

    def test_config_spec_objects(self, runner, tmp_path):
        cfg = tmp_path / "job.json"
        specs = {"domain_spec": json.loads(HOUSE), "model-spec": json.loads(MODEL)}
        cfg.write_text(json.dumps(specs))
        argv = ["analytic", "--rho-list", "1.0", "--out"]
        res = runner.invoke(main, argv + [str(tmp_path / "a"), "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, argv + [str(tmp_path / "b"), "--domain", HOUSE, "--model", MODEL])
        assert res.exit_code == 0, res.output
        a = (tmp_path / "a" / "analytic_components.csv").read_bytes()
        assert a == (tmp_path / "b" / "analytic_components.csv").read_bytes()

    @pytest.mark.filterwarnings("error")  # an overflow RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1e-300,1e-200"],
             "the closed-form outage overflows at density 1e-300"),
            (["phase-map", "--rho-list", "1e-300", "--length-list", "5"],
             "the closed-form outage overflows at density 1e-300"),
            # Every term is finite, but U + F exceeds the largest float.
            (["analytic", "--domain", '{"kind":"house","L":5.23e102}',
              "--model", '{"family":"mimo_mrc_2x2","beta":4e101}', "--rho-list", "1"],
             "the closed-form outage overflows at density 1"),
        ],
        ids=["analytic", "phase-map", "analytic-sum"],
    )
    def test_overflowing_terms_exit_3(self, runner, tmp_path, argv, message):
        res = runner.invoke(main, argv + ["--out", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.output.strip().splitlines() == [f"Error: {message}"]
        assert not (tmp_path / "out").exists()


class TestValidate:
    def test_validate_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["validate", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv(tmp_path / "validation.csv")
        assert header == ["kind", "parameters", "closed_form", "quadrature", "rel_error", "pass"]
        assert all(r[-1] == "pass" for r in rows)
        cc_header, cc_rows = read_csv(tmp_path / "corner_vs_cone.csv")
        assert cc_header == ["theta", "f_corner", "f_cone", "ratio"]
        assert len(cc_rows) == 21


# Strings carry no "/" or "{", so a spec string never names a file outside the
# run's temporary directory and is never read as inline JSON.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(alphabet="0123456789.,:-ex", max_size=6)
)


def json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


JSON_VALUES = st.recursive(JSON_SCALARS, json_containers, max_leaves=6)
CONFIG_KEYS = st.sampled_from(
    ["domain_spec", "model-spec", "rho_range", "rho_list", "out", "plot", "seed", "trials", "beta"]
) | st.text(max_size=8)


@settings(max_examples=60, deadline=None, database=None)
@given(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=4))
def test_any_config_object_exits_0_or_2(config):
    runner = CliRunner()
    # The run's directory sits in a temporary root, so a config "out" of ".."
    # also stays inside it.
    with tempfile.TemporaryDirectory() as root, runner.isolated_filesystem(temp_dir=root):
        Path("job.json").write_text(json.dumps(config))
        res = runner.invoke(
            main,
            ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1.0",
             "--config", "job.json"],
        )
    assert res.exit_code in (0, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output
