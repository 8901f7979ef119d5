"""Monte Carlo engine: kernel exactness, determinism, pinned random stream."""

import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from prismnet import simulator
from prismnet.channel import h_of_d2, hard_disk, mimo_mrc_2x2, rayleigh
from prismnet.geometry import Polygon2D, build_half_cylinder, build_house, build_right_prism
from prismnet.simulator import (
    _count_range,
    _kernel,
    BACKEND,
    SimConfig,
    SimulationError,
    estimate,
    run_trial,
    sweep,
    trial_rng,
)


def kernel_on_graph(kernel, adj):
    """Drive a kernel with an arbitrary adjacency matrix.

    Nodes sit at coincident-free positions inside a huge hard-disk range so
    every pair has link probability 1; the pair uniform is 0.5 for a present
    edge and 1.0 for an absent one (u < 1 fails only then).
    """
    n = adj.shape[0]
    pos = np.ascontiguousarray(np.random.default_rng(0).random((n, 3)))
    iu = np.triu_indices(n, k=1)
    u = np.where(adj[iu], 0.5, 1.0).astype(float)
    return kernel.pair_graph_stats(pos, u, hard_disk(1e6))


def reachability_oracle(adj):
    """Brute-force (connected, min_degree) by breadth-first search from node 0."""
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(n):
                if adj[i, j] and j not in seen:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(seen) == n, int(adj.sum(axis=1).min())


def graph_from_bits(n, bits):
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    mask = np.array([(bits >> k) & 1 for k in range(len(iu[0]))], dtype=bool)
    adj[iu] = mask
    return adj | adj.T


class TestKernelExactness:
    def test_all_six_vertex_graphs(self):
        n = 6
        for bits in range(1 << (n * (n - 1) // 2)):
            adj = graph_from_bits(n, bits)
            assert kernel_on_graph(_kernel, adj) == reachability_oracle(adj), f"graph {bits}"

    def test_random_twelve_vertex_graphs(self):
        rng = np.random.default_rng(99)
        n = 12
        for _ in range(1000):
            adj = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), k=1)
            adj = adj | adj.T
            assert kernel_on_graph(_kernel, adj) == reachability_oracle(adj)

    @pytest.mark.parametrize(
        "domain, model, rho",
        [
            (build_half_cylinder(5.0, 4.0), mimo_mrc_2x2(1.0), 0.25),
            (build_house(2.0), rayleigh(1.0, 3.0), 3.0),
            (build_house(2.0), hard_disk(0.8), 4.0),
        ],
        ids=["mimo", "rayleigh", "hard_disk"],
    )
    def test_real_trials_match_oracle(self, domain, model, rho):
        # Real trials, with each link drawn from H pair by pair in a plain loop.
        cfg = SimConfig(domain=domain, model=model, trials=1, rho=rho)
        n = cfg.n
        kinds = set()
        for t in range(100):
            rng = trial_rng(cfg.seed, t)
            pos = np.ascontiguousarray(cfg.domain.sample(n, rng))
            u = rng.random(n * (n - 1) // 2)
            adj = np.zeros((n, n), dtype=bool)
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    d2 = sum((pos[i, c] - pos[j, c]) ** 2 for c in range(3))
                    adj[i, j] = adj[j, i] = u[k] < h_of_d2(model, d2)
                    k += 1
            want = reachability_oracle(adj)
            assert _kernel.pair_graph_stats(pos, u, model) == want, f"trial {t}"
            assert run_trial(cfg, t) == want
            kinds.add((want[0], want[1] > 0))
        # Connected graphs, isolated nodes, and disconnected graphs with no
        # isolated node (decided by the search) all occur.
        assert kinds == {(True, True), (False, False), (False, True)}

    def test_multi_block_trials_match_dense_reference(self):
        # N = 375: 70,125 pairs, three H blocks.
        cfg = SimConfig(domain=build_house(10.0), model=mimo_mrc_2x2(1.0), trials=1, rho=0.3)
        n = cfg.n
        assert n * (n - 1) // 2 > 2 * _kernel.BLOCK
        kinds = set()
        for t in range(30):
            rng = trial_rng(cfg.seed, t)
            pos = np.ascontiguousarray(cfg.domain.sample(n, rng))
            u = rng.random(n * (n - 1) // 2)
            link = u < h_of_d2(cfg.model, pdist(pos, "sqeuclidean"))
            assert np.unique(np.flatnonzero(link) // _kernel.BLOCK).size == 3
            adj = np.zeros((n, n), dtype=bool)
            adj[np.triu_indices(n, k=1)] = link
            adj |= adj.T
            want = reachability_oracle(adj)
            assert _kernel.pair_graph_stats(pos, u, cfg.model) == want, f"trial {t}"
            assert run_trial(cfg, t) == want
            kinds.add((want[0], want[1] > 0))
        assert kinds == {(True, True), (False, False), (False, True)}

    def test_workspace_reuse_matches_fresh(self):
        # One workspace across trials and models gives each trial's own outcome.
        d = build_house(10.0)
        for model in (mimo_mrc_2x2(1.0), rayleigh(1.0, 3.0), hard_disk(1.2)):
            cfg = SimConfig(domain=d, model=model, trials=1, rho=0.3)
            ws = _kernel.Workspace(cfg.n)
            for t in range(6):
                assert run_trial(cfg, t, ws) == run_trial(cfg, t)


class TestMemory:
    @pytest.mark.parametrize(
        "model", [mimo_mrc_2x2(1.0), rayleigh(1.0, 3.0), hard_disk(1.0)], ids=lambda m: m.family
    )
    def test_peak_per_chunk(self, model):
        # House L=10, rho=1: N=1250.  The workspace holds two pair-sized
        # float64 arrays; H and the link test stay in cache-sized blocks.
        cfg = SimConfig(domain=build_house(10.0), model=model, trials=3, rho=1.0)
        pair_bytes = 8 * cfg.n * (cfg.n - 1) // 2
        tracemalloc.start()
        try:
            _count_range(cfg, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * pair_bytes, f"peak {peak / pair_bytes:.2f} x pair array"


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool that estimate() starts."""
    started = []

    def recording(max_workers):
        started.append(max_workers)
        return ProcessPoolExecutor(max_workers=max_workers)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", recording)
    return started


class TestWorkers:
    @pytest.mark.parametrize("trials, workers, started", [(1, 2, []), (2, 3, [2])])
    def test_no_more_workers_than_trials(self, pools, trials, workers, started):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=trials, rho=1.0)
        assert estimate(cfg, workers) == estimate(cfg, 1)
        assert pools == started

    def test_no_more_workspaces_than_memory_holds(self, pools, monkeypatch):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=20, rho=1.0)
        serial = estimate(cfg, 1)
        monkeypatch.setattr(simulator, "PHYSICAL_MEMORY", 1.5 * _kernel.workspace_bytes(cfg.n))
        assert estimate(cfg, 2) == serial
        assert pools == []

    def test_memory_budget_counts_the_adjacency(self, monkeypatch):
        # Exactly the two pair arrays: the n x n bool adjacency of a trial
        # with no isolated node does not fit as well.
        args = dict(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=1, rho=1.0)
        n = SimConfig(**args).n
        monkeypatch.setattr(simulator, "PHYSICAL_MEMORY", 8.0 * n * (n - 1))
        with pytest.raises(SimulationError, match="physical memory"):
            SimConfig(**args)

    def test_single_node_counts_every_trial(self, pools):
        # One node: a workspace of 0 bytes, and a graph the kernel calls connected.
        cfg = SimConfig(domain=build_house(1.0), model=mimo_mrc_2x2(1.0), trials=4, rho=1.0)
        assert cfg.n == 1
        r = estimate(cfg, 2)
        assert (r.fc_count, r.min_deg_ge1_count) == (4, 4)
        assert pools == [2]


class TestBackends:
    def test_backend_exposed(self):
        assert BACKEND == "python"


class TestDeterminism:
    def test_repeatable(self):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=300, rho=1.0)
        a = estimate(cfg)
        b = estimate(cfg)
        assert (a.fc_count, a.min_deg_ge1_count) == (b.fc_count, b.min_deg_ge1_count)

    def test_parallel_matches_serial(self):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=200, rho=1.0)
        serial = estimate(cfg, workers=1)
        parallel = estimate(cfg, workers=3)
        assert (serial.fc_count, serial.min_deg_ge1_count) == (
            parallel.fc_count,
            parallel.min_deg_ge1_count,
        )

    def test_seed_changes_stream(self):
        assert not np.array_equal(trial_rng(1, 0).random(8), trial_rng(2, 0).random(8))
        # ... and distinct trials under one seed are independent streams too.
        assert not np.array_equal(trial_rng(1, 0).random(8), trial_rng(1, 1).random(8))


HEX_BASE = Polygon2D(
    [[2.0 * math.cos(k * math.pi / 3), 2.0 * math.sin(k * math.pi / 3)] for k in range(6)]
)


class TestStream:
    @pytest.mark.parametrize(
        "domain, model, rho, counts",
        [
            (build_house(5.0), mimo_mrc_2x2(1.0), 1.0, (399, 399)),
            # 50 disconnected trials with no isolated node.
            (build_half_cylinder(5.0, 4.0), mimo_mrc_2x2(1.0), 0.25, (115, 165)),
            (build_right_prism(HEX_BASE, 3.0), rayleigh(1.0, 3.0), 5.0, (394, 394)),
            (build_house(2.0), hard_disk(0.8), 1.0, (1, 29)),
            # N = 375: three H blocks per trial.
            (build_house(10.0), mimo_mrc_2x2(1.0), 0.3, (69, 91)),
        ],
        ids=[
            "house-mimo",
            "half-cylinder-mimo",
            "hex-prism-rayleigh",
            "house-hard-disk",
            "house-L10-mimo-3-blocks",
        ],
    )
    def test_pinned_counts(self, domain, model, rho, counts):
        # Any change to the random stream or the link decision moves these.
        r = estimate(SimConfig(domain=domain, model=model, trials=400, seed=7, rho=rho))
        assert (r.fc_count, r.min_deg_ge1_count) == counts


class TestConfig:
    def test_node_count_round_half_down(self):
        d = build_house(5.0)  # V = 156.25
        m = mimo_mrc_2x2(1.0)
        for rho, n in ((0.8, 125), (1.0, 156), (1.2, 187)):
            assert SimConfig(domain=d, model=m, trials=1, rho=rho).n == n

    def test_validation(self):
        d, m = build_house(1.0), mimo_mrc_2x2(1.0)
        with pytest.raises(SimulationError):
            SimConfig(domain=d, model=m, trials=0, rho=1.0)
        for rho in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                SimConfig(domain=d, model=m, trials=1, rho=rho)


class TestStatistics:
    def test_per_trial_implication(self):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=1, rho=1.0)
        for t in range(2000):
            connected, min_degree = run_trial(cfg, t)
            if connected:
                assert min_degree >= 1

    def test_min_degree_bounds_connectivity(self):
        cfg = SimConfig(domain=build_house(3.0), model=mimo_mrc_2x2(1.0), trials=2000, rho=0.5)
        r = estimate(cfg)
        assert r.p_fc_hat <= r.p_min_deg_hat

    def test_outage_monotone_in_density(self):
        d, m = build_house(3.0), mimo_mrc_2x2(1.0)
        results = sweep(d, m, [0.6, 1.0, 1.4], trials=2000, seed=5)
        for a, b in zip(results, results[1:]):
            noise = 3.0 * math.hypot(a.std_err, b.std_err)
            assert b.p_out_hat <= a.p_out_hat + noise

    def test_hard_disk_monotone_in_range(self):
        # Same seeds => larger range can only add edges, trial by trial.
        d = build_house(2.0)
        small = estimate(SimConfig(domain=d, model=hard_disk(0.8), trials=500, rho=1.0))
        large = estimate(SimConfig(domain=d, model=hard_disk(1.2), trials=500, rho=1.0))
        assert small.fc_count <= large.fc_count

    def test_result_serialization(self):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=100, rho=1.0)
        r = estimate(cfg)
        d = r.to_dict()
        assert d["trials"] == 100
        assert_allclose(d["p_fc_hat"] + d["p_out_hat"], 1.0)
        assert_allclose(d["std_err"], math.sqrt(r.p_fc_hat * (1 - r.p_fc_hat) / 100))

    def test_sweep_requires_increasing(self):
        with pytest.raises(SimulationError):
            sweep(build_house(2.0), mimo_mrc_2x2(1.0), [1.0, 0.5], trials=10)
