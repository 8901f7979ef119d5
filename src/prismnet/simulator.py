"""Monte Carlo estimator of the full-connectivity probability.

Each trial samples N nodes uniformly in the domain, then draws one uniform
per node pair, in row-major condensed order, and links the pair when the
uniform falls below H(distance).  The numpy pair-graph kernel in
``_kernel_py`` returns the graph's connectivity and minimum degree: it
stops at an isolated node, and otherwise runs a breadth-first search over
a dense adjacency.

Each chunk of trials allocates one workspace and every trial writes into
it: per worker, two float64 arrays of N(N-1)/2 (pair uniforms and squared
distances), i.e. 12.5 MB at N = 1250 and 800 MB at N = 10,000, plus
cache-sized blocks for H and the link test.  Those two arrays are the
memory ceiling of a trial.

Trials are fully determined by (seed, trial_index): random numbers come
from a per-trial generator seeded with that pair, so serial, reordered,
and parallel execution all produce identical aggregates.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernel_py as _kernel
from .channel import ConnectivityModel
from .geometry import Domain

# Names the pair-graph kernel in run manifests.
BACKEND = "python"

DEFAULT_SEED = 20140904


class SimulationError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class SimConfig:
    domain: Domain
    model: ConnectivityModel
    trials: int
    seed: int = DEFAULT_SEED
    rho: float | None = None
    n_nodes: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise SimulationError("need at least one trial")
        if (self.rho is None) == (self.n_nodes is None):
            raise SimulationError("give exactly one of rho or n_nodes")
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho > 0):
            raise SimulationError("density must be positive and finite")
        if self.n == 0:
            raise SimulationError("need at least one node")

    @property
    def n(self) -> int:
        """Node count: explicit N, or round-half-down of rho * V."""
        if self.n_nodes is not None:
            return self.n_nodes
        return int(np.ceil(self.rho * self.domain.volume - 0.5))

    @property
    def density(self) -> float:
        return self.rho if self.rho is not None else self.n / self.domain.volume


@dataclass(frozen=True)
class TrialOutcome:
    connected: bool
    min_degree: int


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


def run_trial(config: SimConfig, trial_index: int, workspace=None) -> TrialOutcome:
    """One trial; ``workspace`` is a ``_kernel.Workspace(config.n)`` to reuse."""
    n = config.n
    ws = _kernel.Workspace(n) if workspace is None else workspace
    rng = trial_rng(config.seed, trial_index)
    pos = np.ascontiguousarray(config.domain.sample(n, rng))
    u = rng.random(out=ws.u)
    connected, min_degree = _kernel.pair_graph_stats(pos, u, config.model, ws)
    return TrialOutcome(connected=connected, min_degree=min_degree)


def _count_range(config: SimConfig, start: int, stop: int) -> tuple[int, int]:
    fc = 0
    deg_ok = 0
    workspace = _kernel.Workspace(config.n)
    for t in range(start, stop):
        outcome = run_trial(config, t, workspace)
        if outcome.connected:
            fc += 1
        if outcome.min_degree >= 1 or config.n == 1:
            deg_ok += 1
    return fc, deg_ok


def estimate(config: SimConfig, workers: int = 1) -> SimResult:
    """Aggregate `config.trials` independent trials into a SimResult."""
    t0 = time.perf_counter()
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
        rho=config.density,
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
    """One estimate per density; each density gets its own seed offset."""
    rho_values = list(rho_values)
    if any(b <= a for a, b in zip(rho_values, rho_values[1:])):
        raise SimulationError("density sweep must be strictly increasing")
    results = []
    for i, rho in enumerate(rho_values):
        cfg = SimConfig(domain=domain, model=model, trials=trials, seed=seed + i, rho=float(rho))
        results.append(estimate(cfg, workers=workers))
    return results
