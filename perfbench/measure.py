"""Child process of the prismnet benchmark: set-up probe and measured run.

Started by perfbench/run.py from the checkout root with PYTHONPATH=src:

    python3 perfbench/measure.py setup --workload W --seed N --work DIR
    python3 perfbench/measure.py run --workload W --seed N --seconds S --trace 0|1 --work DIR

``setup`` imports prismnet, builds the workload's inputs and makes the
first call.  ``run`` does the same, runs the correctness checks, repeats the
workload's job for S seconds (S/2 untraced, then S/2 traced when tracing),
and prints one JSON line with the check counts, end-to-end figures,
per-layer figures and the run manifest.  Every job is timed with speed
probes around and during it (speed.py); traced jobs only around it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads as wl
from proc import SRC, run_child
from speed import PERIOD_S, SpeedMeter, Timing
from tracing import Tracer, install, layer_metrics, merge

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Analytic and phase-map outputs are closed-form arithmetic: they must
# repeat to rounding.  Quadrature outputs get a little more room for
# summation-order noise, far below the oracle's own tolerances.
ANALYTIC_RTOL = 1e-12
QUADRATURE_RTOL = 1e-9
CLI_TIMEOUT_S = 120.0


def import_prismnet():
    import prismnet

    found = Path(prismnet.__file__).resolve().parent.parent
    if found != SRC.resolve():
        sys.exit(f"prismnet was imported from {found}, not from this checkout's {SRC}")
    return prismnet


def grid(start: float, stop: float, step: float):
    """The CLI's start:stop:step sweep (perfbench inputs use the same rule)."""
    import numpy as np

    return np.arange(start, stop + 0.5 * step, step)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


class Report:
    """Counts attempted checks and calls; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> bool:
        """fn() returns (ok, detail); an exception counts as a failure."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, traceback.format_exc().strip().splitlines()[-1]
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def call(self, name: str, fn, *args):
        """fn(*args), or None when it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{name}: {traceback.format_exc().strip().splitlines()[-1]}")
            return None


def check_outages(report: Report, name: str, n: int, outages: int, ref: dict):
    """The run's outage count agrees with the recorded reference within Z_MAX SEs."""

    def compare():
        if n == 0:
            return False, "no trials completed"
        z = wl.binomial_z(outages, n, ref["outages"], ref["trials"])
        return abs(z) <= wl.Z_MAX, (
            f"{outages}/{n} outages vs reference {ref['outages']}/{ref['trials']}: z={z:.2f}"
        )

    report.check(name, compare)


class Workload:
    """One workload: inputs, warm-up call, timed job, checks and layer figures.

    Subclasses define ``job``; the other steps default to doing nothing, and
    tracing defaults to wrapping the library in this process.
    """

    kernel_parity = "not applicable"
    # Probe period inside a traced job: none by default, since the probes
    # would land in the job's spans.
    traced_probe_period: float | None = None

    def __init__(self, name: str, seed: int, work: Path):
        self.pn = import_prismnet()
        self.name = name
        self.base = wl.library_seed(seed, name)
        self.work = work
        self.tracer: Tracer | None = None

    def warm_up(self):
        pass

    def checks_before(self, report: Report):
        pass

    def job(self, j: int, report: Report):
        raise NotImplementedError

    def checks_after(self, report: Report):
        pass

    def start_trace(self, tracer: Tracer):
        install(tracer)
        self.tracer = tracer

    def layers(self, jobs: int) -> dict:
        return layer_metrics(merge([self.tracer.state()]), jobs)

    def extra_e2e(self) -> dict:
        return {}


class MonteCarlo(Workload):
    """mc-small / mc-large: serial estimate() on fixed (domain, model, rho) points."""

    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(name, seed, work)
        pn = self.pn

        def build(points):
            out = []
            for p in points:
                domain, model = pn.domain_from_spec(p["domain"]), pn.model_from_spec(p["model"])
                out.append((p["name"], domain, model, p["rho"]))
            return out

        self.points = build(wl.MC_POINTS[name])
        self.check_points = build(wl.CHECK_POINTS[name])
        self.trials = wl.TRIALS_PER_CALL[name]
        self.outcomes = {p[0]: [0, 0] for p in self.points}  # name -> [trials, outages]
        self.sim_s = 0.0
        self.sim_trials = 0
        self.kernel_parity = "not run"

    def config(self, point, trials: int, seed: int):
        _, domain, model, rho = point
        return self.pn.SimConfig(domain=domain, model=model, trials=trials, seed=seed, rho=rho)

    def warm_up(self):
        for p in self.points:
            self.pn.simulator.estimate(self.config(p, 1, self.base), workers=1)

    def checks_before(self, report: Report):
        simulator = self.pn.simulator
        seed = self.base - 1  # jobs use base + j for j >= 0
        n_trials = wl.PARITY_TRIALS[self.name]
        for p in self.points:
            cfg = self.config(p, n_trials, seed)

            def serial_vs_pool():
                a = simulator.estimate(cfg, workers=1)
                b = simulator.estimate(cfg, workers=2)
                return a == b, f"serial {a.to_dict()} != workers=2 {b.to_dict()}"

            report.check(f"serial == workers=2 ({p[0]})", serial_vs_pool)
        try:
            from prismnet import _kernel as compiled  # type: ignore[attr-defined]
        except ImportError:
            self.kernel_parity = "not run: no compiled prismnet._kernel importable"
            return
        report.check("compiled kernel == _kernel_py", lambda: self._kernel_parity(compiled, seed))

    def _kernel_parity(self, compiled, seed: int):
        import numpy as np
        from prismnet import _kernel_py

        simulator = self.pn.simulator
        n_trials = wl.PARITY_TRIALS[self.name]
        for p in self.points:
            cfg = self.config(p, n_trials, seed)
            model = cfg.model
            for t in range(n_trials):
                rng = simulator.trial_rng(seed, t)
                pos = np.ascontiguousarray(cfg.domain.sample(cfg.n, rng))
                u = rng.random(cfg.n * (cfg.n - 1) // 2)
                code = simulator._FAMILY_CODE[model.family]
                args = (pos, u, code, model.beta, model.eta, model.r0)
                got, want = compiled.pair_graph_stats(*args), _kernel_py.pair_graph_stats(*args)
                if tuple(got) != tuple(want):
                    self.kernel_parity = "outcomes differ"
                    return False, f"{p[0]} trial {t}: compiled {got} != python {want}"
        self.kernel_parity = f"identical on {n_trials} trials per point"
        return True, ""

    def job(self, j: int, report: Report):
        for p in self.points:
            cfg = self.config(p, self.trials, self.base + j)
            t0 = time.perf_counter()
            r = report.call(f"estimate({p[0]})", self.pn.simulator.estimate, cfg, 1)
            dt = time.perf_counter() - t0
            if r is None:
                continue
            self.sim_s += dt
            self.sim_trials += r.n_trials
            acc = self.outcomes[p[0]]
            acc[0] += r.n_trials
            acc[1] += r.n_trials - r.fc_count

    def checks_after(self, report: Report):
        ref = json.loads(REFERENCE_PATH.read_text())["mc"]
        for name, (n, outages) in self.outcomes.items():
            check_outages(report, f"p_out({name}) vs reference", n, outages, ref[name])
        for p in self.check_points:
            cfg = self.config(p, wl.CHECK_TRIALS, self.base - 2)
            r = report.call(f"estimate({p[0]})", self.pn.simulator.estimate, cfg, 1)
            if r is not None:
                outages = r.n_trials - r.fc_count
                check_outages(report, f"p_out({p[0]}) vs reference", r.n_trials, outages, ref[p[0]])

    def extra_e2e(self) -> dict:
        return {"trials_per_s": self.sim_trials / self.sim_s if self.sim_s else 0.0}


def oracle_inputs(pn) -> dict:
    spec = wl.ORACLE
    outer, pm, pfc = spec["outer_integral"], spec["phase_map"], spec["assemble_pfc"]
    return {
        "outer_features": pn.domain_from_spec(outer["domain"]).features().all_features(),
        "outer_model": pn.model_from_spec(outer["model"]),
        "outer_rho": outer["rho"],
        "pm_beta": pm["beta"],
        "pm_rho": grid(*pm["rho"]),
        "pm_L": grid(*pm["L"]),
        "pfc_features": {k: pn.domain_from_spec(d).features() for k, d in pfc["domains"].items()},
        "pfc_model": pn.model_from_spec(pfc["model"]),
        "pfc_rho": grid(*pfc["rho"]),
    }


def breakdown_values(b) -> dict:
    return {"p_out_raw": float(b.p_out_raw), **{k: float(v) for k, v in b.group_values().items()}}


def oracle_outputs(pn, inp: dict) -> dict:
    """One oracle job: every quadrature and analytic computation of the workload.

    IntegrationWarnings are counted, not silenced.
    """
    from scipy.integrate import IntegrationWarning

    quadrature, analytic = pn.quadrature, pn.analytic
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        rows = quadrature.validation_suite()
        outer = [
            float(quadrature.outer_integral(f, inp["outer_model"], inp["outer_rho"]))
            for f in inp["outer_features"]
        ]
    cells = analytic.phase_map(inp["pm_beta"], inp["pm_rho"], inp["pm_L"])
    pfc = {
        name: [
            breakdown_values(analytic.assemble_pfc(feats, inp["pfc_model"], rho))
            for rho in inp["pfc_rho"]
        ]
        for name, feats in inp["pfc_features"].items()
    }
    labels = [c[2] for c in cells]
    return {
        "rows": rows,
        "outer_integrals": outer,
        "phase_map": {
            "sha256": hashlib.sha256(json.dumps(cells).encode()).hexdigest(),
            "counts": {lab: labels.count(lab) for lab in sorted(set(labels))},
        },
        "assemble_pfc": pfc,
        "integration_warnings": sum(issubclass(w.category, IntegrationWarning) for w in caught),
    }


class Oracle(Workload):
    """oracle: quadrature validation, generic outer integrals, phase map, analytic sweep."""

    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(name, seed, work)
        self.inp = oracle_inputs(self.pn)
        self.ref = json.loads(REFERENCE_PATH.read_text())["oracle"]
        self.worst_ratio = 0.0

    def warm_up(self):
        pn = self.pn
        with warnings.catch_warnings(record=True):  # counted in jobs, not here
            pn.quadrature.inner_bulk(self.inp["outer_model"])
        pn.analytic.assemble_pfc(self.inp["pfc_features"]["house-L5"], self.inp["pfc_model"], 1.0)

    def job(self, j: int, report: Report):
        out = report.call("oracle job", oracle_outputs, self.pn, self.inp)
        if out is None:
            return
        rows, ref = out["rows"], self.ref
        self.worst_ratio = max(r.rel_error / r.rel_tol for r in rows)
        if self.tracer is not None:
            self.tracer.add("quadrature.integration_warnings", out["integration_warnings"])
        report.check(
            "validation_suite rows pass",
            lambda: (
                len(rows) == ref["validation_rows"] and all(r.passed for r in rows),
                f"{len(rows)} rows, failing: {[(r.kind, r.params) for r in rows if not r.passed]}",
            ),
        )
        got, want = out["outer_integrals"], ref["outer_integrals"]
        report.check(
            "outer_integral values",
            lambda: (
                len(got) == len(want)
                and all(rel_close(a, b, QUADRATURE_RTOL) for a, b in zip(got, want)),
                f"{got} != {want}",
            ),
        )
        report.check(
            "phase_map cells",
            lambda: (
                out["phase_map"] == ref["phase_map"],
                f"{out['phase_map']} != {ref['phase_map']}",
            ),
        )

        def pfc_matches():
            for name, want in ref["assemble_pfc"].items():
                got = out["assemble_pfc"][name]
                for g, w in zip(got, want, strict=True):
                    same = g.keys() == w.keys()
                    if not (same and all(rel_close(g[k], w[k], ANALYTIC_RTOL) for k in w)):
                        return False, f"{name}: {g} != {w}"
            return True, ""

        report.check("assemble_pfc values", pfc_matches)

    def extra_e2e(self) -> dict:
        return {"oracle_worst_tol_ratio": self.worst_ratio}


class SweepCli(Workload):
    """sweep-cli: ``prismnet compare`` in its own process, two pool workers."""

    traced_probe_period = PERIOD_S  # the spans are recorded in the child processes

    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(name, seed, work)
        self.trials = wl.SWEEP_CLI["trials"]
        self.ref = json.loads(REFERENCE_PATH.read_text())["sweep_cli"]
        self.outcomes = {str(rho): [0, 0] for rho in wl.SWEEP_CLI["rho_list"]}
        self.traced = False
        self.trace_dirs: list[Path] = []

    def job(self, j: int, report: Report):
        out = self.work / f"job-{j}"
        # compare seeds density i with seed + i; keep jobs' streams apart.
        args = wl.cli_args(self.trials, self.base + 10 * j, str(out))
        if self.traced:
            tdir = self.work / f"trace-{j}"
            tdir.mkdir(parents=True)
            self.trace_dirs.append(tdir)
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(tdir), *args]
        else:
            cmd = [sys.executable, "-m", "prismnet.cli", *args]
        proc = run_child(cmd, CLI_TIMEOUT_S)
        if not report.check(
            "prismnet compare exits 0 and writes compare.csv",
            lambda: (
                proc.returncode == 0 and (out / "compare.csv").is_file(),
                f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
            ),
        ):
            return
        report.check("compare.csv contents", lambda: self._check_csv(out / "compare.csv"))

    def _check_csv(self, path: Path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [r["rho"] for r in rows] != list(self.outcomes):
            return False, f"densities {[r['rho'] for r in rows]}"
        for r in rows:
            ref = self.ref[r["rho"]]
            trials, fc = int(r["trials"]), int(r["fc_count"])
            if int(r["N"]) != ref["N"] or trials != self.trials or not 0 <= fc <= trials:
                return False, f"row {r}"
            if not rel_close(float(r["p_out_analytic"]), ref["p_out_analytic"], ANALYTIC_RTOL):
                return False, f"p_out_analytic {r['p_out_analytic']} != {ref['p_out_analytic']}"
            acc = self.outcomes[r["rho"]]
            acc[0] += trials
            acc[1] += trials - fc
        return True, ""

    def start_trace(self, tracer: Tracer):
        self.traced = True

    def layers(self, jobs: int) -> dict:
        mains = [json.loads((d / "main.json").read_text()) for d in self.trace_dirs]
        workers = [
            json.loads(p.read_text()) for d in self.trace_dirs for p in d.glob("worker-*.json")
        ]
        return layer_metrics(merge(mains + workers), jobs)

    def checks_after(self, report: Report):
        for rho, (n, outages) in self.outcomes.items():
            name = f"compare p_out(rho={rho}) vs reference"
            check_outages(report, name, n, outages, self.ref[rho])


KINDS = {"mc-small": MonteCarlo, "mc-large": MonteCarlo, "oracle": Oracle, "sweep-cli": SweepCli}


def timed(job, seconds: float, first: int, meter: SpeedMeter, min_jobs: int = 3):
    """Run job(first), job(first + 1), ... for about `seconds`; the Timing of each.

    At least min_jobs run; after that a job starts only if a job of average
    length would end within `seconds`.
    """
    timings: list[Timing] = []
    start = time.perf_counter()
    while (
        len(timings) < min_jobs
        or time.perf_counter() - start + statistics.fmean(t.raw_s for t in timings) <= seconds
    ):
        timings.append(meter.time(job, first + len(timings))[1])
    return timings


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def manifest(w, args) -> dict:
    simulator = w.pn.simulator
    return {
        "workload": args.workload,
        "seed": args.seed,
        "library_seed": wl.library_seed(args.seed, args.workload),
        "inputs": wl.input_spec(args.workload),
        "backend": simulator.BACKEND,
        "PRISMNET_BACKEND": os.environ.get("PRISMNET_BACKEND"),
        "kernel_parity": w.kernel_parity,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("phase", choices=["setup", "run"])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    w = KINDS[args.workload](args.workload, args.seed, work)
    w.warm_up()
    if args.phase == "setup":
        return

    report = Report()
    w.checks_before(report)
    span = args.seconds / 2 if args.trace else args.seconds
    probe = wl.PROBE[args.workload]
    timings = timed(lambda j: w.job(j, report), span, 0, SpeedMeter(probe))
    layers = None
    if args.trace:
        w.start_trace(Tracer())
        meter = SpeedMeter(probe, w.traced_probe_period)
        traced = timed(lambda j: w.job(j, report), span, len(timings), meter)
        layers = w.layers(len(traced))
        traced_s = statistics.median(t.norm_s for t in traced)
        untraced_s = statistics.median(t.norm_s for t in timings)
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    w.checks_after(report)
    e2e = {
        "norm_wall_s": statistics.median(t.norm_s for t in timings),
        "wall_s": statistics.median(t.raw_s for t in timings),
        "probe_ms": 1000.0 * statistics.median(t.probe_s for t in timings),
        "peak_rss_mb": peak_rss_mb(with_children=args.workload == "sweep-cli"),
        **w.extra_e2e(),
    }
    result = {
        "attempted": report.attempted,
        "failed": len(report.failures),
        "failures": report.failures,
        "jobs": {"untraced": len(timings), "traced": len(traced) if args.trace else 0},
        "job_timings": [vars(t) for t in timings],
        "e2e": e2e,
        "layers": layers,
        "manifest": manifest(w, args),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
