"""Monte Carlo estimator of the full-connectivity probability.

Each trial samples N nodes uniformly in the domain, then draws one uniform
per node pair, in row-major condensed order, and links the pair when the
uniform falls below H(distance).  The numpy pair-graph kernel in
``_kernel_py`` decides a batch of trials in one call and returns each
graph's connectivity and minimum degree: a graph with an isolated node is
disconnected, and the others are searched along the list of links from
their first node.

A batch holds B = BATCH // (N(N-1)/2) trials (``_kernel.batch_trials``),
at least one and at most MAX_TRIALS: about ten at N = 156, one from N = 363
up.  A batch is set up together: its B generators, then one
``Domain.sample`` call that places every trial's nodes, each trial's from
its own generator, then one ``run_trial`` per trial that writes its squared
distances.  Each chunk of trials allocates one workspace, and every batch
writes into it: one float64 array of the batch's B N(N-1)/2 squared
distances, i.e. 1 MB at N = 156, 6.2 MB at N = 1250 and 400 MB at
N = 10,000.  The pair uniforms and the link test are temporaries of
cache-sized blocks; a block evaluates H only on the pairs whose uniform
falls below a per-model bound on H over their bin of squared distance,
which holds every pair that links.  The link list grows with the number of
links, not of pairs.  A run holds one batch per worker, and physical
memory is their budget, each batch counted for the worst case, every pair
linked, by ``_kernel.workspace_bytes``: ``SimConfig`` refuses an N whose
one worker exceeds it, and ``estimate`` runs no more workers than there
are trials or workers that fit in it.  A sweep opens one pool, as wide
as the most workers any of its densities gets, and each density's estimate
submits its chunks to it, so the workers fork once per sweep, not once per
density.

Trials are fully determined by (seed, trial_index): random numbers come
from a per-trial generator seeded with that pair, so serial, reordered,
and parallel execution all produce identical aggregates.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernel_py as _kernel
from .base import DEFAULT_SEED, InputError
from .channel import ConnectivityModel
from .geometry import Domain


def _load_pdist_sqeuclidean():
    """scipy's compiled ``pdist_sqeuclidean``, the call that
    ``scipy.spatial.distance.pdist(X, "sqeuclidean", out=...)`` ends in.

    Its extension module is loaded from the installed scipy's directory under
    its own name, or reused if that name is loaded already, so a process holds
    one such module and ``scipy/spatial/__init__.py`` never runs.
    """
    name = "scipy.spatial._distance_pybind"
    if name not in sys.modules:
        found = importlib.util.find_spec("scipy")  # finds scipy without importing it
        if found is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        folder = Path(found.origin).parent / "spatial"
        paths = [folder / f"_distance_pybind{s}" for s in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if p.is_file()), None)
        if path is None:
            from importlib.metadata import version

            raise ImportError(
                f"scipy {version('scipy')} has no {name}: "
                f"searched {', '.join(map(str, paths))}"
            )
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].pdist_sqeuclidean


_pdist_sqeuclidean = _load_pdist_sqeuclidean()

# Names the pair-graph kernel in run manifests.
BACKEND = "python"

# The memory budget of a run's workspaces.
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class SimulationError(InputError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    domain: Domain
    model: ConnectivityModel
    trials: int
    rho: float
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.trials < 1:
            raise SimulationError("need at least one trial")
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise SimulationError("density must be positive and finite")
        nodes = self.rho * self.domain.volume
        n = self.n if math.isfinite(nodes) else math.inf
        need = _kernel.workspace_bytes(n)
        if need > PHYSICAL_MEMORY:
            raise SimulationError(
                f"rho * V = {nodes:.4g} nodes need {need / 2**30:.4g} GiB of pair distances "
                f"and links, more than the {PHYSICAL_MEMORY / 2**30:.4g} GiB of physical memory"
            )
        if n == 0:
            raise SimulationError("need at least one node")

    @property
    def n(self) -> int:
        """Node count: round-half-down of rho * V."""
        return int(np.ceil(self.rho * self.domain.volume - 0.5))


@dataclass(frozen=True)
class SimResult:
    domain_spec: dict
    model_spec: dict
    rho: float
    n: int
    n_trials: int
    fc_count: int
    min_deg_ge1_count: int
    seed: int
    wall_time: float = field(compare=False)

    @property
    def p_fc_hat(self) -> float:
        return self.fc_count / self.n_trials

    @property
    def p_out_hat(self) -> float:
        return 1.0 - self.p_fc_hat

    @property
    def p_min_deg_hat(self) -> float:
        return self.min_deg_ge1_count / self.n_trials

    @property
    def std_err(self) -> float:
        p = self.p_fc_hat
        return float(np.sqrt(p * (1.0 - p) / self.n_trials))

    def to_dict(self) -> dict:
        return {
            "domain": self.domain_spec,
            "model": self.model_spec,
            "rho": self.rho,
            "n": self.n,
            "trials": self.n_trials,
            "fc_count": self.fc_count,
            "min_deg_ge1_count": self.min_deg_ge1_count,
            "p_fc_hat": self.p_fc_hat,
            "p_out_hat": self.p_out_hat,
            "p_min_deg_hat": self.p_min_deg_hat,
            "std_err": self.std_err,
            "seed": self.seed,
            "wall_time_s": self.wall_time,
        }


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Derive the trial's own random stream from (seed, trial_index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def run_trial(positions: np.ndarray, d2: np.ndarray) -> None:
    """Write a trial's squared pair distances, in pair order, into ``d2``,
    from its (N, 3) node positions, with scipy's compiled kernel."""
    _pdist_sqeuclidean(positions, out=d2)


def trial_outcomes(
    config: SimConfig, start: int, stop: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the (connected, min_degree) arrays of trials start..stop-1
    (start < stop), one kernel batch at a time, in trial order."""
    ws = _kernel.Workspace(config.n, min(_kernel.batch_trials(config.n), stop - start))
    for first in range(start, stop, ws.trials):
        # The batch's generators live only as long as the kernel call.  Each
        # supplies its trial's node positions, then its pair uniforms.
        rngs = [trial_rng(config.seed, t) for t in range(first, min(first + ws.trials, stop))]
        positions = config.domain.sample(config.n, rngs)
        for t in range(len(rngs)):
            run_trial(positions[t], ws.slot(t))
        # Spent once their distances are written; the kernel peaks without them.
        del positions
        yield _kernel.pair_graph_stats(rngs, config.model, ws)


def _count_range(config: SimConfig, start: int, stop: int) -> tuple[int, int]:
    # The kernel calls a single node connected, and a connected graph of
    # two or more nodes has no isolated node.
    fc = 0
    deg_ok = 0
    for connected, min_degree in trial_outcomes(config, start, stop):
        fc += int(np.count_nonzero(connected))
        deg_ok += int(np.count_nonzero(connected | (min_degree >= 1)))
    return fc, deg_ok


def _workers(config: SimConfig, workers: int) -> int:
    """The processes a run of ``config`` gets: at most ``workers``, one per
    trial and per worst-case batch (``_kernel.workspace_bytes``) that fits
    in physical memory."""
    return min(workers, config.trials, int(PHYSICAL_MEMORY // _kernel.workspace_bytes(config.n)))


# The pool of the sweep in progress, which its estimates share; None outside
# a sweep.  Handed over here, not as an argument, so that estimate keeps its
# (config, workers) signature for every caller and wrapper.
_pool: ProcessPoolExecutor | None = None


def estimate(config: SimConfig, workers: int = 1) -> SimResult:
    """Aggregate `config.trials` independent trials into a SimResult.

    Splits the trials into ``_workers(config, workers)`` chunks, one per
    process, run in the open sweep's pool or else in a pool of its own;
    the counts do not depend on how many run.
    """
    t0 = time.perf_counter()
    workers = _workers(config, workers)
    if workers > 1:
        # Integer bounds: exact for any trial count, where float64 drops trials past 2**53.
        bounds = [config.trials * k // workers for k in range(workers + 1)]
        fc = deg_ok = 0
        with contextlib.ExitStack() as stack:
            pool = _pool or stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = [
                pool.submit(_count_range, config, a, b) for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for fut in futures:
                f, d = fut.result()
                fc += f
                deg_ok += d
    else:
        fc, deg_ok = _count_range(config, 0, config.trials)
    wall = time.perf_counter() - t0
    return SimResult(
        domain_spec=config.domain.to_spec(),
        model_spec=config.model.to_spec(),
        rho=config.rho,
        n=config.n,
        n_trials=config.trials,
        fc_count=fc,
        min_deg_ge1_count=deg_ok,
        seed=config.seed,
        wall_time=wall,
    )


def sweep(
    domain: Domain,
    model: ConnectivityModel,
    rho_values,
    trials: int,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> list[SimResult]:
    """One estimate per density; each density gets its own seed offset.

    Every density's config is built, and so checked, before the first runs.
    The estimates share one pool, as wide as the most workers any density
    gets; each submits only as many chunks as it gets workers.
    """
    global _pool
    rho_values = list(rho_values)
    if any(b <= a for a, b in zip(rho_values, rho_values[1:])):
        raise SimulationError("density sweep must be strictly increasing")
    configs = [
        SimConfig(domain=domain, model=model, trials=trials, seed=seed + i, rho=float(rho))
        for i, rho in enumerate(rho_values)
    ]
    width = max((_workers(cfg, workers) for cfg in configs), default=1)
    if width < 2:
        return [estimate(cfg, workers) for cfg in configs]
    with ProcessPoolExecutor(max_workers=width) as pool:
        _pool = pool
        try:
            return [estimate(cfg, workers) for cfg in configs]
        finally:
            _pool = None
