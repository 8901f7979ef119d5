"""CLI subcommands: outputs, determinism, config precedence, exit codes."""

import csv
import json

import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

from prismnet import analytic
from prismnet.channel import mimo_mrc_2x2
from prismnet.cli import main
from prismnet.geometry import build_house

HOUSE = '{"kind":"house","L":5.0}'
MODEL = '{"family":"mimo_mrc_2x2","beta":1.0}'


@pytest.fixture
def runner():
    return CliRunner()


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
        assert header == ["rho", "U", "F", "E1", "E2", "C1", "C2", "total", "p_fc"]
        b = analytic.assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 1.0)
        assert_allclose(float(rows[0][header.index("total")]), b.p_out_raw, rtol=1e-12)
        assert_allclose(float(rows[0][header.index("C1")]), b.group_values()["C1"], rtol=1e-12)

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
        ]
        assert len(rows) == 1


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
            assert label == analytic.dominant_component(float(L), 1.0, float(rho))
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

    def test_env_out_dir(self, runner, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("PRISMNET_OUT", str(env_dir))
        res = runner.invoke(
            main, ["analytic", "--domain", HOUSE, "--model", MODEL, "--rho-list", "1.0"]
        )
        assert res.exit_code == 0
        assert (env_dir / "analytic_components.csv").exists()


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
