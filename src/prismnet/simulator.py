"""Monte Carlo estimator of the full-connectivity probability.

Each trial samples N nodes uniformly in the domain, then draws one uniform
per node pair, in row-major condensed order, and links the pair when the
uniform falls below H(distance).  The numpy pair-graph kernel in
``_kernel_py`` returns the graph's connectivity and minimum degree: it
stops at an isolated node, and otherwise runs a breadth-first search over
a dense adjacency.

Each chunk of trials allocates one workspace and every trial writes into
it: two float64 arrays of N(N-1)/2 (pair uniforms and squared distances),
i.e. 12.5 MB at N = 1250 and 800 MB at N = 10,000, plus cache-sized blocks
for H and the link test.  A trial with no isolated node also allocates an
N x N bool adjacency (N^2 bytes).  A run holds one workspace and one
adjacency per worker, and physical memory is its budget: ``SimConfig``
refuses an N whose one workspace and adjacency exceed it, and ``estimate``
runs no more workers than there are trials or workspaces and adjacencies
that fit in it.

Trials are fully determined by (seed, trial_index): random numbers come
from a per-trial generator seeded with that pair, so serial, reordered,
and parallel execution all produce identical aggregates.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernel_py as _kernel
from .base import DEFAULT_SEED, InputError
from .channel import ConnectivityModel
from .geometry import Domain

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
                f"rho * V = {nodes:.4g} nodes need {need / 2**30:.4g} GiB of pair arrays and "
                f"adjacency, more than the {PHYSICAL_MEMORY / 2**30:.4g} GiB of physical memory"
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
    model_family: str
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
            "model_family": self.model_family,
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


def run_trial(config: SimConfig, trial_index: int, workspace=None) -> tuple[bool, int]:
    """One trial's (connected, min_degree); ``workspace`` is a ``_kernel.Workspace(config.n)``."""
    n = config.n
    ws = _kernel.Workspace(n) if workspace is None else workspace
    rng = trial_rng(config.seed, trial_index)
    pos = config.domain.sample(n, rng)
    return _kernel.pair_graph_stats(pos, rng.random(out=ws.u), config.model, ws)


def _count_range(config: SimConfig, start: int, stop: int) -> tuple[int, int]:
    # The kernel calls a single node connected, and a connected graph of
    # two or more nodes has no isolated node.
    fc = 0
    deg_ok = 0
    workspace = _kernel.Workspace(config.n)
    for t in range(start, stop):
        connected, min_degree = run_trial(config, t, workspace)
        fc += connected
        deg_ok += connected or min_degree >= 1
    return fc, deg_ok


def estimate(config: SimConfig, workers: int = 1) -> SimResult:
    """Aggregate `config.trials` independent trials into a SimResult.

    Runs at most ``workers`` processes, one per trial and per workspace that
    fits in physical memory; the counts do not depend on how many run.
    """
    t0 = time.perf_counter()
    need = _kernel.workspace_bytes(config.n)
    fit = int(PHYSICAL_MEMORY // need) if need else workers
    workers = min(workers, config.trials, fit)
    if workers > 1:
        chunks = np.linspace(0, config.trials, workers + 1, dtype=int)
        fc = deg_ok = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_count_range, config, int(a), int(b))
                for a, b in zip(chunks[:-1], chunks[1:])
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
        model_family=config.model.family,
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
    """
    rho_values = list(rho_values)
    if any(b <= a for a, b in zip(rho_values, rho_values[1:])):
        raise SimulationError("density sweep must be strictly increasing")
    configs = [
        SimConfig(domain=domain, model=model, trials=trials, seed=seed + i, rho=float(rho))
        for i, rho in enumerate(rho_values)
    ]
    return [estimate(cfg, workers=workers) for cfg in configs]
