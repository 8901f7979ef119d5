"""Command-line front end.

Subcommands: analytic, simulate, compare, phase-map, validate.  Inputs are
domain/model specs (inline JSON or a path to a JSON file) plus a density
sweep; outputs are CSV files, a JSON mirror for simulation results, and
optional SVG plots, written to ``--out`` (or the job file's ``out``).
Everything is deterministic given the full job spec, including the seed.

Each invocation is resolved once into a checked ``Job``: the flags, with a
``--config`` JSON file laid over them, before any work starts.  This module
is the only place a spec given as text is parsed; the library takes dicts.

Exit codes: 0 ok, 1 validation-suite failure, 2 config error, 3 numeric
failure (a quadrature that needs more than 200 panels to meet its tolerance,
or a closed-form outage or term that overflows).
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import analytic, svgplot
from .base import DEFAULT_SEED, InputError
from .channel import ConnectivityModel, mimo_mrc_2x2, model_from_spec
from .geometry import Domain, domain_from_spec

EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Commands import the quadrature and simulator modules only when they run
# (the simulator loads scipy's compiled distance kernel); so the errors are
# caught by their base classes.
_CONFIG_ERRORS = (InputError, click.UsageError)
# Numeric failures: QuadratureError and a closed form's OverflowError.
_NUMERIC_ERRORS = ArithmeticError

# The JSON types a --config value may take, by the click type of its flag.
_JSON_TYPES = {"boolean": (bool,), "integer": (int,), "float": (int, float), "text": (str,)}
_SPEC_KEYS = ("domain_spec", "model_spec")
# The most values a start:stop:step sweep, or cells a phase-map grid, may hold.
_MAX_SWEEP_VALUES = 10**6


class JobError(click.ClickException):
    exit_code = EXIT_CONFIG


class NumericError(click.ClickException):
    exit_code = EXIT_NUMERIC


@dataclass(frozen=True)
class Job:
    """One checked invocation; a command reads only the fields it has flags for."""

    out: Path
    plot: bool = False
    domain: Domain | None = None
    model: ConnectivityModel | None = None
    rhos: tuple[float, ...] = ()
    lengths: tuple[float, ...] = ()
    trials: int = 0
    workers: int = 1
    seed: int = DEFAULT_SEED


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an int beyond Python's digit limit
        raise JobError(f"{source}: invalid JSON: {exc}") from exc


def _read_json_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise JobError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return _parse_json(text, path)


def _load_spec(value: str | dict | None, flag: str) -> dict:
    if not value:
        raise JobError(f"{flag} is required")
    if isinstance(value, dict):
        return value
    value = value.strip()
    if value.startswith("{"):
        return _parse_json(value, flag)
    return _read_json_file(value)


def _parse_number(text: str, name: str) -> Decimal:
    """A sweep value as the exact decimal its text writes."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise JobError(f"--{name}: {text.strip()!r} is not a number") from None
    if not (value.is_finite() and math.isfinite(float(value))):
        raise JobError(f"--{name} values must be finite")
    return value


def _parse_sweep(range_spec: str | None, list_spec: str | None, name: str) -> tuple[float, ...]:
    """The sweep's values, each the float nearest its decimal value, so
    ``0.1:0.15:0.05`` and ``0.1,0.15`` give the same floats.  A range holds
    start + k step for every k >= 0 that stays below stop + step / 2, in
    decimal arithmetic (28 significant digits)."""
    if range_spec and list_spec:
        raise JobError(f"give either --{name} or --{name}-list, not both")
    if range_spec:
        parts = range_spec.split(":")
        if len(parts) != 3:
            raise JobError(f"--{name} expects start:stop:step")
        a, b, step = (_parse_number(p, name) for p in parts)
        if float(step) <= 0 or b < a:
            raise JobError(f"--{name} range must be increasing with positive step")
        count = math.ceil((b - a) / step + Decimal("0.5"))
        if count > _MAX_SWEEP_VALUES:
            raise JobError(f"--{name} range holds more than {_MAX_SWEEP_VALUES} values")
        values = tuple(float(a + k * step) for k in range(count))
    elif list_spec:
        values = tuple(float(_parse_number(v, name)) for v in list_spec.split(",") if v.strip())
    else:
        values = ()
    if not values:
        raise JobError(f"empty {name} sweep")
    if any(v <= 0 for v in values):
        raise JobError(f"{name} values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise JobError(f"{name} values must be strictly increasing")
    return values


def _config_value(ctx: click.Context, param: click.Parameter, key: str, value):
    """One --config value, checked as its flag's value would be."""
    kind = param.type.name.split()[0]  # "integer range" is checked as an integer
    if type(value) not in _JSON_TYPES[kind] + ((dict,) if param.name in _SPEC_KEYS else ()):
        raise JobError(f"config key {key!r}: expected {kind}, got {type(value).__name__}")
    if isinstance(value, dict):
        return value
    try:
        return param.type_cast_value(ctx, value)
    except OverflowError:
        raise JobError(f"config key {key!r}: integer too large for a float") from None


def _merge_config(ctx: click.Context, flags: dict, path: str) -> dict:
    """Lay the job file's values over the flags (file wins, with a warning)."""
    data = _read_json_file(path)
    if not isinstance(data, dict):
        raise JobError(f"{path}: a job file must hold a JSON object")
    params = {p.name: p for p in ctx.command.params if p.name in flags}
    values = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in params:
            raise JobError(f"{path}: unknown key {key!r}; allowed: {', '.join(params)}")
        values[name] = _config_value(ctx, params[name], key, value)
    for name, value in values.items():
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT and flags[name] != value:
            click.echo(f"warning: config file overrides {params[name].opts[0]}", err=True)
    return {**flags, **values}


def _output_dir(value: str | None) -> Path:
    """The --out directory, refused when it cannot be one: a path with a NUL,
    one that is, or lies under, an existing file, or one the file system
    cannot check.  Creates nothing."""
    out = Path(value or ".")
    if "\0" in str(out):
        raise JobError(f"--out {str(out)!r}: a path cannot hold a NUL character")
    try:
        for path in (out, *out.parents):
            if path.is_dir():
                break
            if os.path.lexists(path):
                raise JobError(f"--out {str(out)!r}: {str(path)!r} exists and is not a directory")
    except OSError as exc:  # a name too long for the file system, say
        raise JobError(f"--out {str(out)!r}: {exc.strerror or exc}") from exc
    return out


def _resolve(ctx: click.Context, flags: dict) -> Job:
    """Check every value of one invocation and build its Job."""
    config_path = flags.pop("config_path")
    if config_path:
        flags = _merge_config(ctx, flags, config_path)
    job = {
        "out": _output_dir(flags["out"]),
        "plot": flags.get("plot", False),
    }
    if "domain_spec" in flags:
        job["domain"] = domain_from_spec(_load_spec(flags["domain_spec"], "--domain"))
        job["model"] = model_from_spec(_load_spec(flags["model_spec"], "--model"))
    if "beta" in flags:
        job["model"] = mimo_mrc_2x2(flags["beta"])
    if "rho_range" in flags:
        job["rhos"] = _parse_sweep(flags["rho_range"], flags["rho_list"], "rho")
    if "l_range" in flags:
        job["lengths"] = _parse_sweep(flags["l_range"], flags["l_list"], "length")
        cells = len(job["rhos"]) * len(job["lengths"])
        if cells > _MAX_SWEEP_VALUES:
            raise JobError(f"the rho x L grid has {cells} cells, more than {_MAX_SWEEP_VALUES}")
    if "trials" in flags:
        if flags["trials"] is None:
            raise JobError("--trials is required")
        job["trials"] = flags["trials"]
        job["workers"] = flags["threads"] or os.cpu_count() or 1
        job["seed"] = flags["seed"]
    return Job(**job)


class _Main(click.Group):
    """Maps bad input to exit 2 and numeric failure to exit 3, each with one line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _CONFIG_ERRORS as exc:
            message = exc.format_message() if isinstance(exc, click.ClickException) else str(exc)
            raise JobError(message) from exc
        except _NUMERIC_ERRORS as exc:
            raise NumericError(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Connectivity toolkit for networks confined in convex right prisms."""


_DOMAIN = click.option("--domain", "domain_spec", help="domain spec: inline JSON or a file path")
_MODEL = click.option("--model", "model_spec", help="model spec: inline JSON or a file path")
_RHO = click.option("--rho", "rho_range", help="density sweep start:stop:step")
_RHO_LIST = click.option("--rho-list", help="comma-separated density list")
_TRIALS = click.option(
    "--trials", type=click.IntRange(min=1), help="Monte Carlo trials per density (required)"
)
_THREADS = click.option(
    "--threads",
    type=click.IntRange(min=1),
    help="upper bound on worker processes (default: all cores): at most one per trial and "
    "per workspace that fits in physical memory",
)
_SEED = click.option(
    "--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, show_default=True, help="RNG seed"
)
_OUT = click.option("--out", help="output directory (default: the current directory)")
_PLOT = click.option("--plot", is_flag=True, help="also emit SVG plots")
_CONFIG = click.option("--config", "config_path", help="JSON job file; overrides flags")


def _command(name: str, *options):
    """Register a subcommand with these options and --config; it is called with the Job."""

    def register(run):
        def callback(**flags):
            run(_resolve(click.get_current_context(), flags))

        for option in reversed((*options, _CONFIG)):
            callback = option(callback)
        return main.command(name, help=run.__doc__)(callback)

    return register


def _write_csv(path: Path, header: list[str], rows, comments: list[str] = ()):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _breakdowns(job: Job):
    features = job.domain.features()
    return [analytic.assemble_pfc(features, job.model, rho) for rho in job.rhos]


def _simulate(job: Job):
    # Imported here, in the parent, so that pool workers fork with the
    # distance kernel loaded.  Its ~5k objects load with the cyclic GC paused,
    # and then the whole heap (~28k, most of it click's and numpy's) is
    # frozen, so no collection walks it: not while it loads, not in the forked
    # workers (whose copied-on-write pages it would dirty) and not at exit.
    gc.disable()
    try:
        from . import simulator
    finally:
        gc.freeze()
        gc.enable()

    return simulator.sweep(
        job.domain, job.model, job.rhos, job.trials, seed=job.seed, workers=job.workers
    )


def _add_simulation(fig: svgplot.Figure, results):
    rhos, p_out = [r.rho for r in results], [r.p_out_hat for r in results]
    fig.add(rhos, p_out, "simulation", style="dots", yerr=[r.std_err for r in results])


@_command("analytic", _DOMAIN, _MODEL, _RHO, _RHO_LIST, _OUT, _PLOT)
def cmd_analytic(job: Job):
    """Closed-form outage breakdown over a density sweep."""
    breakdowns = _breakdowns(job)
    # terms() order: U, F, then edges and corners by increasing angle.
    labels = list(dict.fromkeys(t.label for t in breakdowns[0].terms))
    groups = [b.group_values() for b in breakdowns]
    rows = [
        [b.rho] + [g[lab] for lab in labels] + [b.p_out_raw, b.p_fc, b.valid, b.clamped]
        for b, g in zip(breakdowns, groups)
    ]
    _write_csv(
        job.out / "analytic_components.csv",
        ["rho", *labels, "total", "p_fc", "valid", "clamped"],
        rows,
    )

    long_rows = [
        [b.rho, t.label, t.multiplicity, t.prefactor, t.exponent_rate, value]
        + [b.p_out_raw, b.p_fc]
        for b in breakdowns
        for t, value in zip(b.terms, b.values)
    ]
    _write_csv(
        job.out / "analytic_breakdown.csv",
        ["rho", "label", "multiplicity", "prefactor", "exponent_rate", "value", "p_out", "p_fc"],
        long_rows,
    )
    if job.plot:
        fig = svgplot.Figure(
            title="analytic outage components", x_label="node density", y_label="P_out"
        )
        for lab in labels:
            fig.add([b.rho for b in breakdowns], [g[lab] for g in groups], lab)
        fig.add([b.rho for b in breakdowns], [b.p_out_raw for b in breakdowns], "total")
        fig.write(job.out / "analytic_components.svg")
    click.echo(f"wrote {job.out / 'analytic_components.csv'}")


_SIM_OPTIONS = (_DOMAIN, _MODEL, _RHO, _RHO_LIST, _SEED, _OUT, _PLOT, _TRIALS, _THREADS)


@_command("simulate", *_SIM_OPTIONS)
def cmd_simulate(job: Job):
    """Monte Carlo outage estimates over a density sweep."""
    results = _simulate(job)
    rows = [
        [r.rho, r.n, r.n_trials, r.fc_count, r.p_fc_hat, r.std_err, r.p_min_deg_hat, r.wall_time]
        for r in results
    ]
    _write_csv(
        job.out / "simulation.csv",
        ["rho", "N", "trials", "fc_count", "p_fc_hat", "std_err", "p_min_deg_hat", "wall_time_s"],
        rows,
    )
    with open(job.out / "simulation.json", "w") as fh:
        json.dump([r.to_dict() for r in results], fh, indent=2)
    if job.plot:
        fig = svgplot.Figure(title="simulated outage", x_label="node density", y_label="P_out")
        _add_simulation(fig, results)
        fig.write(job.out / "simulation.svg")
    click.echo(f"wrote {job.out / 'simulation.csv'}")


@_command("compare", *_SIM_OPTIONS)
def cmd_compare(job: Job):
    """Analytic vs simulated outage on the same sweep, with z-scores."""
    breakdowns = _breakdowns(job)
    results = _simulate(job)
    rows = []
    for b, r in zip(breakdowns, results):
        if 0 < r.fc_count < r.n_trials:
            z = (r.p_out_hat - b.p_out_raw) / r.std_err
        else:
            z = float("nan")
        rows.append(
            [b.rho, r.n, b.p_out_raw, r.p_out_hat, r.std_err, z, r.n_trials, r.fc_count]
            + [b.valid, b.clamped]
        )
    _write_csv(
        job.out / "compare.csv",
        ["rho", "N", "p_out_analytic", "p_out_sim", "std_err", "z_score", "trials", "fc_count"]
        + ["valid", "clamped"],
        rows,
    )
    if job.plot:
        fig = svgplot.Figure(
            title="analytic vs simulation", x_label="node density", y_label="P_out"
        )
        fig.add([b.rho for b in breakdowns], [b.p_out_raw for b in breakdowns], "analytic")
        _add_simulation(fig, results)
        fig.write(job.out / "compare.svg")
    click.echo(f"wrote {job.out / 'compare.csv'}")


@_command(
    "phase-map",
    click.option("--beta", type=float, default=1.0, show_default=True, help="MIMO link beta"),
    _RHO,
    _RHO_LIST,
    click.option("--length", "l_range", help="house-side grid start:stop:step"),
    click.option("--length-list", "l_list", help="comma-separated house-side grid"),
    _OUT,
    _PLOT,
)
def cmd_phase_map(job: Job):
    """Dominant-component map over the (rho, L) plane for the house prism."""
    cells = analytic.phase_map(job.model.beta, job.rhos, job.lengths)
    _write_csv(
        job.out / "phase_map.csv",
        ["rho", "L", "dominant_label"],
        cells,
        comments=[f"grid {len(job.rhos)}x{len(job.lengths)} (rho x L), beta={job.model.beta}"],
    )
    if job.plot:
        svgplot.phase_map_svg(cells, job.out / "phase_map.svg")
    click.echo(f"wrote {job.out / 'phase_map.csv'}")


@_command("validate", _OUT)
def cmd_validate(job: Job):
    """Quadrature-oracle vs closed-form report; exit 1 on any failing row."""
    from . import quadrature

    rows = quadrature.validation_suite()
    _write_csv(
        job.out / "validation.csv",
        ["kind", "parameters", "closed_form", "quadrature", "rel_error", "pass"],
        [
            [r.kind, json.dumps(r.params), r.closed_form, r.quadrature, r.rel_error]
            + ["pass" if r.passed else "fail"]
            for r in rows
        ],
    )
    # Informational corner-vs-cone shape comparison table.
    shapes = [
        [t, analytic.corner_shape_function(t), analytic.cone_shape_function(t)]
        for t in np.linspace(np.pi / 4, 3 * np.pi / 4, 21)
    ]
    _write_csv(
        job.out / "corner_vs_cone.csv",
        ["theta", "f_corner", "f_cone", "ratio"],
        [[t, corner, cone, corner / cone] for t, corner, cone in shapes],
    )
    for r in rows:
        status = "pass" if r.passed else "FAIL"
        click.echo(f"{status}  {r.kind}  rel_error={r.rel_error:.3e}  tol={r.rel_tol:.0e}")
    if not all(r.passed for r in rows):
        sys.exit(EXIT_VALIDATION)
    click.echo(f"wrote {job.out / 'validation.csv'}")


if __name__ == "__main__":
    main()
