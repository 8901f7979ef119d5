"""Per-layer tracing done from outside the library.

The benchmark replaces the public functions of each prismnet module with
wrappers that record spans (call count, total time, self time) and plain
call counts.  Nothing inside the library changes; the wrappers are
installed only in traced runs.  A span's self time is its duration minus
the time covered by the spans it caused.

State lives in a ``Tracer`` object.  Forked pool workers inherit the
wrappers; ``install(..., worker_dir=...)`` makes each worker reset the
tracer it inherited and write its own totals to ``worker_dir`` after every
chunk of trials, so the traced CLI run can merge them.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import time
from pathlib import Path


def children_cpu_s() -> float:
    """User + system CPU time of all reaped child processes."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.sums: dict[str, float] = {}  # call counts and other additive figures
        self.sims: list[dict] = []  # one entry per estimate() call
        self._open: list[float] = []  # child time accumulated by each open span

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._open.pop()
                tot = self.spans.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - child
                if self._open:
                    self._open[-1] += dur

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, value: float):
        self.sums[name] = self.sums.get(name, 0) + value

    def state(self) -> dict:
        return {"spans": self.spans, "sums": self.sums, "sims": self.sims}


def install(tracer: Tracer, worker_dir: Path | None = None) -> None:
    """Wrap the public entry points of every prismnet layer."""
    from prismnet import analytic, geometry, quadrature, simulator

    est = simulator.estimate

    @functools.wraps(est)
    def estimate(config, workers=1):
        cpu0 = children_cpu_s()
        t0 = time.perf_counter()
        result = est(config, workers)
        tracer.sims.append(
            {
                "n": result.n,
                "trials": result.n_trials,
                "min_deg_ge1": result.min_deg_ge1_count,
                "workers": workers,
                "wall_s": time.perf_counter() - t0,
                "children_cpu_s": children_cpu_s() - cpu0,
            }
        )
        return result

    simulator.estimate = tracer.span("simulator.estimate", estimate)
    simulator.run_trial = tracer.span("simulator.run_trial", simulator.run_trial)
    simulator.trial_rng = tracer.span("simulator.trial_rng", simulator.trial_rng)
    kernel = simulator._kernel
    kernel.pair_graph_stats = tracer.span("kernel.pair_graph_stats", kernel.pair_graph_stats)
    for cls in (geometry.House, geometry.HalfCylinder, geometry.RightPrism):
        cls.sample = tracer.span("geometry.sample", cls.sample)

    analytic.assemble_pfc = tracer.span("analytic.assemble_pfc", analytic.assemble_pfc)
    analytic.phase_map = tracer.span("analytic.phase_map", analytic.phase_map)

    quadrature.validation_suite = tracer.span(
        "quadrature.validation_suite", quadrature.validation_suite
    )
    quadrature.outer_integral = tracer.span("quadrature.outer_integral", quadrature.outer_integral)
    quadrature._wedge_j_integrals = tracer.span(
        "quadrature.wedge_j", quadrature._wedge_j_integrals
    )
    quadrature.h = tracer.counter("quadrature.h", quadrature.h)
    quadrature.h_prime = tracer.counter("quadrature.h_prime", quadrature.h_prime)

    if worker_dir is None:
        return
    count_range = simulator._count_range
    parent = os.getpid()

    # Pickled by reference as prismnet.simulator._count_range, so pool
    # workers run this wrapper too.  Each chunk starts from an empty tracer
    # (dropping what the fork copied) and writes its own totals, since one
    # worker may run several chunks.
    @functools.wraps(count_range)
    def _count_range(config, start, stop):
        if os.getpid() == parent:
            return count_range(config, start, stop)
        tracer.reset()
        result = count_range(config, start, stop)
        path = Path(worker_dir) / f"worker-{tracer.pid}-{time.perf_counter_ns()}.json"
        path.write_text(json.dumps(tracer.state()))
        return result

    simulator._count_range = _count_range


def merge(states) -> dict:
    """Sum the span totals, sums and estimate records of several processes."""
    out = {"spans": {}, "sums": {}, "sims": []}
    for st in states:
        for name, (calls, total, self_s) in st["spans"].items():
            tot = out["spans"].setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += total
            tot[2] += self_s
        for name, n in st["sums"].items():
            out["sums"][name] = out["sums"].get(name, 0) + n
        out["sims"].extend(st["sims"])
    return out


def layer_metrics(state: dict, jobs: int) -> dict:
    """Per-layer figures from merged tracer state over ``jobs`` traced jobs.

    Per-trial figures divide by run_trial calls; per-job figures by
    ``jobs``.  A layer that did no work reads 0.
    """
    spans, sums, sims = state["spans"], state["sums"], state["sims"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    trials = calls("simulator.run_trial")
    per_trial_us = (lambda s: 1e6 * s / trials) if trials else (lambda s: 0.0)
    sim_trials = sum(s["trials"] for s in sims)
    pairs = sum(s["trials"] * s["n"] * (s["n"] - 1) // 2 for s in sims)
    pooled = [s for s in sims if s["workers"] > 1]
    slot_s = sum(s["workers"] * s["wall_s"] for s in pooled)
    busy_s = sum(s["children_cpu_s"] for s in pooled)
    asm_calls = calls("analytic.assemble_pfc")
    return {
        "simulator.trial_rng.us_per_trial": per_trial_us(total("simulator.trial_rng")),
        "geometry.sample.us_per_trial": per_trial_us(total("geometry.sample")),
        "kernel.pair_graph_stats.us_per_trial": per_trial_us(total("kernel.pair_graph_stats")),
        "simulator.run_trial.self_us_per_trial": per_trial_us(self_s("simulator.run_trial")),
        "simulator.estimate.self_ms": (
            1e3 * self_s("simulator.estimate") / calls("simulator.estimate")
            if calls("simulator.estimate")
            else 0.0
        ),
        "simulator.pairs_per_trial": pairs / sim_trials if sim_trials else 0.0,
        "simulator.pair_bytes_per_trial": 8.0 * pairs / sim_trials if sim_trials else 0.0,
        "simulator.isolated_trial_fraction": (
            1.0 - sum(s["min_deg_ge1"] for s in sims) / sim_trials if sim_trials else 0.0
        ),
        "simulator.pool.busy_fraction": busy_s / slot_s if slot_s else 0.0,
        "simulator.pool.wait_s": (slot_s - busy_s) / jobs,
        "quadrature.wedge_j.calls": calls("quadrature.wedge_j") / jobs,
        "quadrature.wedge_j.s": total("quadrature.wedge_j") / jobs,
        "quadrature.h.calls": sums.get("quadrature.h", 0) / jobs,
        "quadrature.h_prime.calls": sums.get("quadrature.h_prime", 0) / jobs,
        "quadrature.validation_suite.s": total("quadrature.validation_suite") / jobs,
        "quadrature.outer_integral.s": total("quadrature.outer_integral") / jobs,
        "quadrature.integration_warnings": sums.get("quadrature.integration_warnings", 0) / jobs,
        "analytic.assemble_pfc.calls": asm_calls / jobs,
        "analytic.assemble_pfc.us_per_call": (
            1e6 * total("analytic.assemble_pfc") / asm_calls if asm_calls else 0.0
        ),
        "analytic.phase_map.s": total("analytic.phase_map") / jobs,
        "cli.import_s": sums.get("cli.import_s", 0.0) / jobs,
        "cli.write_outputs.s": total("cli.write_outputs") / jobs,
        "cli.self_s": self_s("cli.main") / jobs,
    }
