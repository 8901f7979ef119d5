"""Command-line front end.

Subcommands: analytic, simulate, compare, phase-map, validate.  Inputs are
domain/model specs (inline JSON or a path to a JSON file) plus a density
sweep; outputs are CSV files, a JSON mirror for simulation results, and
optional SVG plots.  Everything is deterministic given the full job spec,
including the seed.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error, 3 numeric
failure.  The output directory can be overridden with PRISMNET_OUT.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import analytic, quadrature, simulator, svgplot
from .channel import ModelError, model_from_spec
from .geometry import GeometryError, domain_from_spec
from .quadrature import QuadratureError
from .simulator import DEFAULT_SEED, SimulationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_ERRORS = (
    GeometryError,
    ModelError,
    SimulationError,
    analytic.ClosedFormUnavailableError,
    json.JSONDecodeError,
    KeyError,
)


class JobError(click.ClickException):
    exit_code = EXIT_CONFIG


def _read_json_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise JobError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError(f"{path}: invalid JSON: {exc}") from exc


def _load_spec(value: str) -> dict:
    value = value.strip()
    if value.startswith("{"):
        return json.loads(value)
    return _read_json_file(value)


def _parse_float(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise JobError(f"--{name}: {text.strip()!r} is not a number") from exc
    if not math.isfinite(value):
        raise JobError(f"--{name} values must be finite")
    return value


def _parse_sweep(range_spec: str | None, list_spec: str | None, name: str) -> list[float]:
    if range_spec and list_spec:
        raise JobError(f"give either --{name} or --{name}-list, not both")
    if range_spec:
        parts = range_spec.split(":")
        if len(parts) != 3:
            raise JobError(f"--{name} expects start:stop:step")
        a, b, step = (_parse_float(p, name) for p in parts)
        if step <= 0 or b < a:
            raise JobError(f"--{name} range must be increasing with positive step")
        values = list(np.arange(a, b + 0.5 * step, step))
    elif list_spec:
        values = [_parse_float(v, name) for v in list_spec.split(",") if v.strip()]
    else:
        values = []
    if not values:
        raise JobError(f"empty {name} sweep")
    if any(v <= 0 for v in values):
        raise JobError(f"{name} values must be positive")
    return values


def _apply_config_file(ctx_params: dict, config_path: str | None) -> dict:
    """Merge a JSON config file over the flag values (file wins, with a warning)."""
    if not config_path:
        return ctx_params
    file_params = _read_json_file(config_path)
    merged = dict(ctx_params)
    for key, value in file_params.items():
        key = key.replace("-", "_")
        if key in merged and merged[key] is not None and merged[key] != value:
            click.echo(f"warning: config file overrides --{key}", err=True)
        merged[key] = value
    return merged


def _out_dir(out: str | None) -> Path:
    path = Path(os.environ.get("PRISMNET_OUT") or out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows, comments: list[str] = ()):
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _breakdowns(domain_spec, model_spec, rho_values):
    domain = domain_from_spec(domain_spec)
    model = model_from_spec(model_spec)
    features = domain.features()
    return domain, model, [analytic.assemble_pfc(features, model, rho) for rho in rho_values]


@click.group()
def main():
    """Connectivity toolkit for networks confined in convex right prisms."""


def _common_options(fn):
    for deco in reversed(
        [
            click.option("--domain", "domain_spec", help="domain spec: inline JSON or a file path"),
            click.option("--model", "model_spec", help="model spec: inline JSON or a file path"),
            click.option("--rho", "rho_range", help="density sweep start:stop:step"),
            click.option("--rho-list", help="comma-separated density list"),
            click.option("--seed", type=int, default=None, help=f"RNG seed (default {DEFAULT_SEED})"),
            click.option("--out", help="output directory (default cwd; PRISMNET_OUT overrides)"),
            click.option("--plot", is_flag=True, default=None, help="also emit SVG plots"),
            click.option("--config", "config_path", help="JSON job file; overrides flags"),
        ]
    ):
        fn = deco(fn)
    return fn


def _run(fn, **params):
    try:
        return fn(**params)
    except JobError:
        raise
    except _CONFIG_ERRORS as exc:
        raise JobError(str(exc)) from exc
    except (QuadratureError, FloatingPointError, ArithmeticError) as exc:
        err = click.ClickException(str(exc))
        err.exit_code = EXIT_NUMERIC
        raise err from exc


@main.command("analytic")
@_common_options
def cmd_analytic(config_path, **params):
    """Closed-form outage breakdown over a density sweep."""

    def job(domain_spec, model_spec, rho_range, rho_list, seed, out, plot):
        if not domain_spec or not model_spec:
            raise JobError("--domain and --model are required")
        rhos = _parse_sweep(rho_range, rho_list, "rho")
        _, _, breakdowns = _breakdowns(_load_spec(domain_spec), _load_spec(model_spec), rhos)
        out_path = _out_dir(out)

        labels = sorted(
            {t.label for t in breakdowns[0].terms},
            key=lambda lab: ([t.codim for t in breakdowns[0].terms if t.label == lab][0], lab),
        )
        rows = []
        for b in breakdowns:
            vals = b.group_values()
            rows.append([b.rho] + [vals[lab] for lab in labels] + [b.p_out_raw, b.p_fc])
        _write_csv(out_path / "analytic_components.csv", ["rho", *labels, "total", "p_fc"], rows)

        long_rows = [
            [
                b.rho,
                t.label,
                t.multiplicity,
                t.prefactor,
                t.exponent_rate,
                t.contribution(b.rho),
                b.p_out_raw,
                b.p_fc,
            ]
            for b in breakdowns
            for t in b.terms
        ]
        _write_csv(
            out_path / "analytic_breakdown.csv",
            ["rho", "label", "multiplicity", "prefactor", "exponent_rate", "value", "p_out", "p_fc"],
            long_rows,
        )
        if plot:
            fig = svgplot.Figure(
                title="analytic outage components", x_label="node density", y_label="P_out"
            )
            for lab in labels:
                fig.add([b.rho for b in breakdowns], [b.group_values()[lab] for b in breakdowns], lab)
            fig.add([b.rho for b in breakdowns], [b.p_out_raw for b in breakdowns], "total")
            fig.write(out_path / "analytic_components.svg")
        click.echo(f"wrote {out_path / 'analytic_components.csv'}")

    _run(job, **_apply_config_file(params, config_path))


@main.command("simulate")
@_common_options
@click.option("--trials", type=int, default=None, help="Monte Carlo trials per density")
@click.option("--threads", type=int, default=None, help="worker processes (default: all cores)")
def cmd_simulate(config_path, **params):
    """Monte Carlo outage estimates over a density sweep."""

    def job(domain_spec, model_spec, rho_range, rho_list, seed, out, plot, trials, threads):
        if not domain_spec or not model_spec:
            raise JobError("--domain and --model are required")
        if not trials or trials < 1:
            raise JobError("--trials must be a positive integer")
        rhos = _parse_sweep(rho_range, rho_list, "rho")
        domain = domain_from_spec(_load_spec(domain_spec))
        model = model_from_spec(_load_spec(model_spec))
        workers = threads or os.cpu_count() or 1
        seed = DEFAULT_SEED if seed is None else seed
        results = simulator.sweep(domain, model, rhos, trials, seed=seed, workers=workers)
        out_path = _out_dir(out)
        _write_sim_outputs(results, out_path, plot)
        click.echo(f"wrote {out_path / 'simulation.csv'}")

    _run(job, **_apply_config_file(params, config_path))


def _write_sim_outputs(results, out_path, plot, name="simulation"):
    rows = [
        [
            r.rho,
            r.n,
            r.n_trials,
            r.fc_count,
            r.p_fc_hat,
            r.std_err,
            r.p_min_deg_hat,
            r.wall_time,
        ]
        for r in results
    ]
    _write_csv(
        out_path / f"{name}.csv",
        ["rho", "N", "trials", "fc_count", "p_fc_hat", "std_err", "p_min_deg_hat", "wall_time_s"],
        rows,
    )
    with open(out_path / f"{name}.json", "w") as fh:
        json.dump([r.to_dict() for r in results], fh, indent=2)
    if plot:
        fig = svgplot.Figure(title="simulated outage", x_label="node density", y_label="P_out")
        fig.add(
            [r.rho for r in results],
            [r.p_out_hat for r in results],
            "simulation",
            style="dots",
            yerr=[r.std_err for r in results],
        )
        fig.write(out_path / f"{name}.svg")


@main.command("compare")
@_common_options
@click.option("--trials", type=int, default=None, help="Monte Carlo trials per density")
@click.option("--threads", type=int, default=None, help="worker processes (default: all cores)")
def cmd_compare(config_path, **params):
    """Analytic vs simulated outage on the same sweep, with z-scores."""

    def job(domain_spec, model_spec, rho_range, rho_list, seed, out, plot, trials, threads):
        if not domain_spec or not model_spec:
            raise JobError("--domain and --model are required")
        if not trials or trials < 1:
            raise JobError("--trials must be a positive integer")
        rhos = _parse_sweep(rho_range, rho_list, "rho")
        domain, model, breakdowns = _breakdowns(_load_spec(domain_spec), _load_spec(model_spec), rhos)
        workers = threads or os.cpu_count() or 1
        seed = DEFAULT_SEED if seed is None else seed
        results = simulator.sweep(domain, model, rhos, trials, seed=seed, workers=workers)
        out_path = _out_dir(out)
        rows = []
        for b, r in zip(breakdowns, results):
            if 0 < r.fc_count < r.n_trials:
                z = (r.p_out_hat - b.p_out_raw) / r.std_err
            else:
                z = float("nan")
            rows.append(
                [b.rho, r.n, b.p_out_raw, r.p_out_hat, r.std_err, z, r.n_trials, r.fc_count]
            )
        _write_csv(
            out_path / "compare.csv",
            ["rho", "N", "p_out_analytic", "p_out_sim", "std_err", "z_score", "trials", "fc_count"],
            rows,
        )
        if plot:
            fig = svgplot.Figure(
                title="analytic vs simulation", x_label="node density", y_label="P_out"
            )
            fig.add([b.rho for b in breakdowns], [b.p_out_raw for b in breakdowns], "analytic")
            fig.add(
                [r.rho for r in results],
                [r.p_out_hat for r in results],
                "simulation",
                style="dots",
                yerr=[r.std_err for r in results],
            )
            fig.write(out_path / "compare.svg")
        click.echo(f"wrote {out_path / 'compare.csv'}")

    _run(job, **_apply_config_file(params, config_path))


@main.command("phase-map")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--rho", "rho_range", help="density grid start:stop:step")
@click.option("--rho-list", help="comma-separated density grid")
@click.option("--length", "l_range", help="house-side grid start:stop:step")
@click.option("--length-list", "l_list", help="comma-separated house-side grid")
@click.option("--out", help="output directory")
@click.option("--plot", is_flag=True, default=None)
@click.option("--config", "config_path", help="JSON job file; overrides flags")
def cmd_phase_map(config_path, **params):
    """Dominant-component map over the (rho, L) plane for the house prism."""

    def job(beta, rho_range, rho_list, l_range, l_list, out, plot):
        rhos = _parse_sweep(rho_range, rho_list, "rho")
        lengths = _parse_sweep(l_range, l_list, "length")
        cells = analytic.phase_map(beta, rhos, lengths)
        out_path = _out_dir(out)
        _write_csv(
            out_path / "phase_map.csv",
            ["rho", "L", "dominant_label"],
            cells,
            comments=[f"grid {len(rhos)}x{len(lengths)} (rho x L), beta={beta}"],
        )
        if plot:
            svgplot.phase_map_svg(cells, out_path / "phase_map.svg")
        click.echo(f"wrote {out_path / 'phase_map.csv'}")

    _run(job, **_apply_config_file(params, config_path))


@main.command("validate")
@click.option("--out", help="output directory")
@click.option("--config", "config_path", help="JSON job file; overrides flags")
def cmd_validate(config_path, **params):
    """Quadrature-oracle vs closed-form report; exit 1 on any failing row."""

    def job(out):
        rows = quadrature.validation_suite()
        out_path = _out_dir(out)
        _write_csv(
            out_path / "validation.csv",
            ["kind", "parameters", "closed_form", "quadrature", "rel_error", "pass"],
            [
                [
                    r.kind,
                    json.dumps(r.params),
                    r.closed_form,
                    r.quadrature,
                    r.rel_error,
                    "pass" if r.passed else "fail",
                ]
                for r in rows
            ],
        )
        # Informational corner-vs-cone shape comparison table.
        thetas = np.linspace(np.pi / 4, 3 * np.pi / 4, 21)
        _write_csv(
            out_path / "corner_vs_cone.csv",
            ["theta", "f_corner", "f_cone", "ratio"],
            [
                [
                    t,
                    analytic.corner_shape_function(t),
                    analytic.cone_shape_function(t),
                    analytic.corner_shape_function(t) / analytic.cone_shape_function(t),
                ]
                for t in thetas
            ],
        )
        failures = [r for r in rows if not r.passed]
        for r in rows:
            status = "pass" if r.passed else "FAIL"
            click.echo(f"{status}  {r.kind}  rel_error={r.rel_error:.3e}  tol={r.rel_tol:.0e}")
        if failures:
            sys.exit(EXIT_VALIDATION)
        click.echo(f"wrote {out_path / 'validation.csv'}")

    _run(job, **_apply_config_file(params, config_path))


if __name__ == "__main__":
    main()
