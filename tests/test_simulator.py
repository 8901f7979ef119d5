"""Monte Carlo engine: kernel exactness, determinism, pinned random stream."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from prismnet import simulator
from prismnet.channel import h_of_d2, hard_disk, mimo_mrc_2x2, model_from_spec, rayleigh
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
    trial_outcomes,
    trial_rng,
)

ROOT = Path(__file__).resolve().parents[1]


class PresetUniforms:
    """Stands in for a trial's generator: hands out preset pair uniforms in order."""

    def __init__(self, u):
        self.u = u
        self.used = 0

    def random(self, out):
        out[...] = self.u[self.used : self.used + out.size]
        self.used += out.size
        return out


def preset_stats(kernel, pos, u, model):
    """The kernel's (connected, min_degree) of one trial, a batch of one, with
    pair k drawing u[k]; every uniform must be drawn."""
    ws = kernel.Workspace(pos.shape[0], 1)
    pdist(pos, "sqeuclidean", out=ws.slot(0))
    rng = PresetUniforms(u)
    connected, min_degree = kernel.pair_graph_stats([rng], model, ws)
    assert rng.used == u.size
    return bool(connected[0]), int(min_degree[0])


def outcomes(cfg, start, stop):
    """Trials start..stop-1's (connected, min_degree), decided in the simulator's batches."""
    return [
        (bool(c), int(m))
        for connected, min_degree in trial_outcomes(cfg, start, stop)
        for c, m in zip(connected, min_degree)
    ]


def start_trial(cfg, t, d2):
    """Trial t alone, a batch of one: sample its nodes, write their squared
    distances into d2 and return its generator, which the kernel draws on."""
    rng = trial_rng(cfg.seed, t)
    run_trial(cfg.domain.sample(cfg.n, [rng])[0], d2)
    return rng


def one_by_one(cfg, start, stop):
    """The same trials' outcomes, each decided alone as a batch of one."""
    ws = _kernel.Workspace(cfg.n, 1)
    got = []
    for t in range(start, stop):
        rng = start_trial(cfg, t, ws.slot(0))
        connected, min_degree = _kernel.pair_graph_stats([rng], cfg.model, ws)
        got.append((bool(connected[0]), int(min_degree[0])))
    return got


def kernel_on_graphs(kernel, adjs):
    """Drive a kernel with arbitrary adjacency matrices of n nodes each, a
    full batch of graphs per kernel call; returns each graph's
    (connected, min_degree).

    Nodes sit at coincident-free positions inside a huge hard-disk range so
    every pair has link probability 1; each graph is a trial with its own
    preset pair uniforms, 0.5 for a present edge and 1.0 for an absent one
    (u < 1 fails only then).
    """
    n = adjs[0].shape[0]
    d2 = pdist(np.random.default_rng(0).random((n, 3)), "sqeuclidean")
    iu = np.triu_indices(n, k=1)
    ws = kernel.Workspace(n, kernel.batch_trials(n))
    got = []
    for first in range(0, len(adjs), ws.trials):
        batch = adjs[first : first + ws.trials]
        rngs = [PresetUniforms(np.where(adj[iu], 0.5, 1.0)) for adj in batch]
        for t in range(len(rngs)):
            # The kernel spends each batch's squared distances.
            ws.slot(t)[...] = d2
        connected, min_degree = kernel.pair_graph_stats(rngs, hard_disk(1e6), ws)
        assert all(rng.used == d2.size for rng in rngs)
        got += zip(connected.tolist(), min_degree.tolist())
    return got


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


def random_graphs(rng, n, count):
    """``count`` random graphs of n nodes, each of its own edge density."""
    adjs = []
    for _ in range(count):
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.5), k=1)
        adjs.append(adj | adj.T)
    return adjs


class TestKernelExactness:
    def test_all_six_vertex_graphs(self):
        n = 6
        adjs = [graph_from_bits(n, bits) for bits in range(1 << (n * (n - 1) // 2))]
        for bits, (got, adj) in enumerate(zip(kernel_on_graphs(_kernel, adjs), adjs)):
            assert got == reachability_oracle(adj), f"graph {bits}"

    def test_random_twelve_vertex_graphs(self):
        adjs = random_graphs(np.random.default_rng(99), 12, 1000)
        for got, adj in zip(kernel_on_graphs(_kernel, adjs), adjs):
            assert got == reachability_oracle(adj)

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
        batched = outcomes(cfg, 0, 100)
        kinds = set()
        for t in range(100):
            rng = trial_rng(cfg.seed, t)
            pos = cfg.domain.sample(n, [rng])[0]
            u = rng.random(n * (n - 1) // 2)
            adj = np.zeros((n, n), dtype=bool)
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    d2 = sum((pos[i, c] - pos[j, c]) ** 2 for c in range(3))
                    adj[i, j] = adj[j, i] = u[k] < h_of_d2(model, d2)
                    k += 1
            want = reachability_oracle(adj)
            assert preset_stats(_kernel, pos, u, model) == want, f"trial {t}"
            assert batched[t] == want, f"trial {t}"
            kinds.add((want[0], want[1] > 0))
        # Connected graphs, isolated nodes, and disconnected graphs with no
        # isolated node (decided by the search) all occur.
        assert kinds == {(True, True), (False, False), (False, True)}

    def test_multi_block_trials_match_dense_reference(self):
        # N = 375: 70,125 pairs, three H blocks.
        cfg = SimConfig(domain=build_house(10.0), model=mimo_mrc_2x2(1.0), trials=1, rho=0.3)
        n = cfg.n
        assert n * (n - 1) // 2 > 2 * _kernel.BLOCK
        batched = outcomes(cfg, 0, 30)
        kinds = set()
        for t in range(30):
            rng = trial_rng(cfg.seed, t)
            pos = cfg.domain.sample(n, [rng])[0]
            u = rng.random(n * (n - 1) // 2)
            link = u < h_of_d2(cfg.model, pdist(pos, "sqeuclidean"))
            assert np.unique(np.flatnonzero(link) // _kernel.BLOCK).size == 3
            adj = np.zeros((n, n), dtype=bool)
            adj[np.triu_indices(n, k=1)] = link
            adj |= adj.T
            want = reachability_oracle(adj)
            assert preset_stats(_kernel, pos, u, cfg.model) == want, f"trial {t}"
            assert batched[t] == want, f"trial {t}"
            kinds.add((want[0], want[1] > 0))
        assert kinds == {(True, True), (False, False), (False, True)}

    def test_blocked_draws_continue_one_stream(self):
        # N = 375: a batch of one trial over three H blocks, each drawing its
        # own uniforms.  N = 156: a batch of ten trials whose H blocks cut
        # through trials.  The kernel leaves each trial's generator where one
        # draw of all its pairs leaves its twin.
        for side, rho, n in ((10.0, 0.3, 375), (5.0, 1.0, 156)):
            cfg = SimConfig(domain=build_house(side), model=mimo_mrc_2x2(1.0), trials=1, rho=rho)
            assert cfg.n == n
            trials = _kernel.batch_trials(n)
            ws = _kernel.Workspace(n, trials)
            rngs = [start_trial(cfg, t, ws.slot(t)) for t in range(trials)]
            _kernel.pair_graph_stats(rngs, cfg.model, ws)
            for t, rng in enumerate(rngs):
                twin = trial_rng(cfg.seed, t)
                cfg.domain.sample(n, [twin])
                twin.random(ws.pairs)
                assert rng.random() == twin.random(), f"N={n} trial {t}"

    def test_workspace_reuse_matches_fresh(self):
        # One workspace across trials and models gives each trial its own outcome.
        d = build_house(10.0)
        ws = _kernel.Workspace(375, 1)
        for model in (mimo_mrc_2x2(1.0), rayleigh(1.0, 3.0), hard_disk(1.2)):
            cfg = SimConfig(domain=d, model=model, trials=1, rho=0.3)
            for t in range(6):
                rng = start_trial(cfg, t, ws.slot(0))
                connected, min_degree = _kernel.pair_graph_stats([rng], model, ws)
                assert [(bool(connected[0]), int(min_degree[0]))] == one_by_one(cfg, t, t + 1)


# The bound table's models: MIMO across two decades of range either way,
# Rayleigh at several exponents, and hard disks short and far past any domain.
BOUNDED_MODELS = [
    mimo_mrc_2x2(1e-3), mimo_mrc_2x2(1.0), mimo_mrc_2x2(40.0),
    rayleigh(1.0, 2.0), rayleigh(0.3, 2.0), rayleigh(1.0, 3.0), rayleigh(2.0, 4.5),
    hard_disk(0.8), hard_disk(100.0),
]


def model_id(model):
    return f"{model.family}-{model.beta}-{model.eta}"


def bin_probes(model, rng):
    """Squared distances that probe each bin of the model's bound table: every
    bin's least d2 and its neighbours, random points inside the table's bins,
    below them and past its top, and 0.  Past the top they stop at 2^64 times
    it, where MIMO's x^2 is still finite."""
    first, bound = _kernel._bound_table(model)
    bits = (first + np.arange(bound.size + 1, dtype=np.int64)) << _kernel.BIN_SHIFT
    least = bits.view(float)
    top = least[-1]
    inside = rng.integers(bits[0], bits[-1], 4000)
    below = rng.integers(0, bits[0], 200)
    past = rng.integers(bits[-1], np.float64(top * 2.0**64).view(np.int64), 400)
    return np.concatenate([
        least, np.nextafter(least, 0.0), np.nextafter(least, np.inf),
        np.concatenate([inside, below, past]).view(float), [0.0], top * 2.0 ** np.arange(65),
    ])


def bin_bounds(model, d2):
    """Each d2's bound, read from the table as the kernel reads it."""
    first, bound = _kernel._bound_table(model)
    return bound.take((d2.view(np.int64) >> _kernel.BIN_SHIFT) - first, mode="clip")


class TestBoundTable:
    """The kernel evaluates H only where u falls below its bin's bound, so
    every bound must be positive and at least H over its whole bin."""

    @pytest.mark.parametrize("model", BOUNDED_MODELS, ids=model_id)
    def test_bounds_cover_h(self, model):
        d2 = bin_probes(model, np.random.default_rng(5))
        assert (bin_bounds(model, d2) >= h_of_d2(model, d2)).all()
        assert (_kernel._bound_table(model)[1] > 0).all()

    @pytest.mark.parametrize("model", BOUNDED_MODELS, ids=model_id)
    def test_boundary_uniforms_link_exactly(self, model):
        # A batch of four trials of 200 nodes, three H blocks, whose squared
        # distances are the probes in random order: uniforms of 0, of H and
        # just below H link exactly the pairs of u < H on every pair.
        rng = np.random.default_rng(6)
        ws = _kernel.Workspace(200, 4)
        assert ws.d2.size > 2 * _kernel.BLOCK
        d2 = rng.choice(bin_probes(model, rng), ws.d2.size)
        h = h_of_d2(model, d2)
        for u, want in (
            (np.zeros_like(h), np.flatnonzero(h > 0)),
            (h, np.zeros(0, dtype=int)),
            (np.nextafter(h, 0.0), np.flatnonzero(h > 0)),
        ):
            assert np.array_equal(np.flatnonzero(u < h), want)
            ws.d2[...] = d2
            rngs = [PresetUniforms(u[t * ws.pairs : (t + 1) * ws.pairs]) for t in range(4)]
            assert np.array_equal(_kernel._links(rngs, model, ws), want)
        # Far pairs, H = 0 included, and pairs that link both occur.
        assert (h == 0).any() and (h > 0.5).any()


HEX_BASE = Polygon2D(
    [[2.0 * math.cos(k * math.pi / 3), 2.0 * math.sin(k * math.pi / 3)] for k in range(6)]
)


class TestBatches:
    """A batch decides each of its trials as that trial alone would be decided."""

    @pytest.mark.parametrize(
        "domain, model, rho, trials",
        [
            (build_house(5.0), mimo_mrc_2x2(1.0), 1.0, 25),
            (build_house(3.0), rayleigh(1.0, 3.0), 1.0, 300),
            (build_house(3.0), hard_disk(1.0), 1.0, 300),
            (build_half_cylinder(5.0, 4.0), mimo_mrc_2x2(1.0), 0.25, 400),
            (build_half_cylinder(2.5, 2.0), rayleigh(1.0, 3.0), 1.5, 300),
            (build_half_cylinder(2.0, 2.0), hard_disk(0.9), 2.0, 300),
            (build_right_prism(HEX_BASE, 3.0), rayleigh(1.0, 3.0), 5.0, 25),
            (build_right_prism(HEX_BASE, 1.0), mimo_mrc_2x2(3.0), 2.0, 300),
            (build_right_prism(HEX_BASE, 1.0), hard_disk(0.7), 3.0, 300),
        ],
        ids=[
            "house-mimo", "house-rayleigh", "house-hard-disk",
            "half-cylinder-mimo", "half-cylinder-rayleigh", "half-cylinder-hard-disk",
            "hex-prism-rayleigh", "hex-prism-mimo", "hex-prism-hard-disk",
        ],
    )
    def test_batched_matches_one_by_one(self, domain, model, rho, trials):
        cfg = SimConfig(domain=domain, model=model, trials=1, rho=rho)
        batch = _kernel.batch_trials(cfg.n)
        # Several batches, the last one short, and H blocks that cut through
        # a trial.
        assert 1 < batch < trials and trials % batch
        assert batch * cfg.n * (cfg.n - 1) // 2 > _kernel.BLOCK
        got = outcomes(cfg, 0, trials)
        assert got == one_by_one(cfg, 0, trials)
        # Connected graphs and isolated nodes both occur.
        assert {c for c, _ in got} == {True, False}

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_trials(self, n):
        # More trials than one batch holds.
        cfg = SimConfig(domain=build_house(1.0), model=hard_disk(0.8), trials=1, rho=0.8 * n)
        assert cfg.n == n
        trials = 3 * _kernel.MAX_TRIALS // 2
        got = outcomes(cfg, 0, trials)
        assert got == one_by_one(cfg, 0, trials)
        if n == 1:
            assert set(got) == {(True, 0)}
        else:
            assert set(got) == {(True, 1), (False, 0)}

    def test_trials_of_several_blocks(self):
        # Two trials to a batch, each with more pairs than one H block.  (A
        # trial alone in its batch: test_multi_block_trials_match_dense_reference.)
        cfg = SimConfig(domain=build_house(4.0), model=mimo_mrc_2x2(1.0), trials=1, rho=3.75)
        assert (cfg.n, _kernel.batch_trials(cfg.n)) == (300, 2)
        assert 300 * 299 // 2 > _kernel.BLOCK
        assert outcomes(cfg, 0, 5) == one_by_one(cfg, 0, 5)


class TestMemory:
    @pytest.mark.parametrize(
        "model", [mimo_mrc_2x2(1.0), rayleigh(1.0, 3.0), hard_disk(1.0)], ids=lambda m: m.family
    )
    def test_peak_per_chunk(self, model):
        # House L=10, rho=1: N=1250.  The workspace holds one pair-sized
        # float64 array, the squared distances; the uniforms, H and the link
        # test stay in cache-sized blocks, and the search allocates no n x n
        # adjacency.
        cfg = SimConfig(domain=build_house(10.0), model=model, trials=3, rho=1.0)
        pair_bytes = 8 * cfg.n * (cfg.n - 1) // 2
        tracemalloc.start()
        try:
            _count_range(cfg, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * pair_bytes, f"peak {peak / pair_bytes:.2f} x pair array"

    def test_budget_covers_every_pair_linked(self):
        # A range far beyond the domain links every pair, so the link arrays
        # outweigh the distances; the budget counts them for a full batch.
        # N=300: two trials of more pairs than one H block.  N=40: 168
        # trials, cut by the H blocks.
        for rho, n, batch in ((30.0, 300, 2), (4.0, 40, 168)):
            cfg = SimConfig(domain=build_house(2.0), model=hard_disk(100.0), trials=1, rho=rho)
            assert (cfg.n, _kernel.batch_trials(cfg.n)) == (n, batch)
            pairs = batch * n * (n - 1) // 2
            assert pairs > _kernel.BLOCK
            tracemalloc.start()
            try:
                assert _count_range(cfg, 0, batch) == (batch, batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The distances and each link's two int32 ends are held at once.
            assert (8 + 2 * 4) * pairs < peak <= _kernel.workspace_bytes(n), f"N={n}"

    def test_generators_per_batch_are_bounded(self, monkeypatch):
        # N=2: one pair per trial, so a batch's size is set by MAX_TRIALS,
        # and the generators it holds are most of its bytes.  Many batches
        # hold no more than one does.
        cfg = SimConfig(domain=build_house(1.0), model=hard_disk(100.0), trials=1, rho=1.6)
        assert cfg.n == 2
        trials = 8 * _kernel.MAX_TRIALS
        tracemalloc.start()
        try:
            one = trial_rng(0, 0)
            generator_bytes = tracemalloc.get_traced_memory()[0]
            del one
            sizes = []
            kernel = _kernel.pair_graph_stats

            def spy(rngs, model, ws):
                sizes.append(len(rngs))
                return kernel(rngs, model, ws)

            monkeypatch.setattr(_kernel, "pair_graph_stats", spy)
            tracemalloc.reset_peak()
            assert _count_range(cfg, 0, trials) == (trials, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [_kernel.MAX_TRIALS] * 8
        assert peak <= _kernel.workspace_bytes(2) < trials * generator_bytes


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

    def test_memory_budget_is_the_workspace_bytes(self, monkeypatch):
        # A full batch's squared distances, block buffers, every pair's link
        # arrays, the H bound table, and its trials' generators, positions
        # and node arrays: one byte less is refused.
        args = dict(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=1, rho=1.0)
        n = SimConfig(**args).n
        batch = _kernel.batch_trials(n)
        pairs = batch * n * (n - 1) // 2
        need = _kernel.workspace_bytes(n)
        block = 64 * min(pairs, _kernel.BLOCK)
        assert need == 24 * pairs + block + 8 * _kernel.TABLE_BINS + (2048 + 120 * n) * batch
        monkeypatch.setattr(simulator, "PHYSICAL_MEMORY", need - 1)
        with pytest.raises(SimulationError, match="physical memory"):
            SimConfig(**args)
        monkeypatch.setattr(simulator, "PHYSICAL_MEMORY", need)
        assert SimConfig(**args).n == n

    def test_single_node_counts_every_trial(self, pools):
        # One node: no pairs, and a graph the kernel calls connected.
        cfg = SimConfig(domain=build_house(1.0), model=mimo_mrc_2x2(1.0), trials=4, rho=1.0)
        assert cfg.n == 1
        r = estimate(cfg, 2)
        assert (r.fc_count, r.min_deg_ge1_count) == (4, 4)
        assert pools == [2]

    def test_sweep_shares_one_pool(self, pools, monkeypatch):
        # One pool for the whole sweep, and still one estimate per density.
        densities = []
        inner = simulator.estimate

        def recording(config, workers=1):
            densities.append(config.rho)
            return inner(config, workers)

        monkeypatch.setattr(simulator, "estimate", recording)
        args = (build_house(2.0), mimo_mrc_2x2(1.0), [0.5, 1.0, 1.5], 6)
        shared = sweep(*args, workers=2)
        assert pools == [2]
        assert densities == [0.5, 1.0, 1.5]
        assert shared == sweep(*args, workers=1)

    @pytest.mark.parametrize("trials", [2**63 - 1, 2**53 + 1], ids=["2**63-1", "2**53+1"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunks_tile_the_trials(self, monkeypatch, trials, workers):
        # The pool records each submitted range and runs none of them.
        ranges = []

        class Done:
            def result(self):
                return 0, 0

        class Recording:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, config, start, stop):
                ranges.append((start, stop))
                return Done()

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", Recording)
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=trials, rho=1.0)
        assert estimate(cfg, workers).n_trials == trials
        assert len(ranges) == workers
        starts, stops = zip(*ranges)
        assert starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == trials
        assert all(type(a) is int and a < b for a, b in ranges)


class TestDistances:
    """run_trial's compiled kernel writes scipy's pdist(X, "sqeuclidean") bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 39, 156, 1250])
    def test_matches_pdist(self, n):
        pos = build_house(10.0).sample(n, [trial_rng(7, n)])[0]
        d2 = np.full(n * (n - 1) // 2, np.nan)
        run_trial(pos, d2)
        assert np.array_equal(d2, pdist(pos, "sqeuclidean"))

    def test_writes_each_slot_of_a_batch(self):
        ws = _kernel.Workspace(156, _kernel.batch_trials(156))
        assert ws.trials == 10
        ws.d2[...] = np.nan
        pos = build_right_prism(HEX_BASE, 2.0).sample(156, [trial_rng(3, t) for t in range(10)])
        for t in range(ws.trials):
            run_trial(pos[t], ws.slot(t))
        assert np.array_equal(ws.d2, np.concatenate([pdist(p, "sqeuclidean") for p in pos]))


class TestBackends:
    def test_backend_exposed(self):
        assert BACKEND == "python"


# Run as a script, so that spawned workers can import its main module.
FRESH_WORKERS = """
import multiprocessing, sys
from prismnet.channel import mimo_mrc_2x2
from prismnet.geometry import build_house
from prismnet.simulator import SimConfig, estimate

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=200, rho=1.0)
    serial, parallel = estimate(cfg, 1), estimate(cfg, 2)
    assert serial == parallel, (serial, parallel)
"""


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

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_parallel_matches_serial_in_fresh_workers(self, tmp_path, method):
        # Workers that start without the parent's memory load the distance
        # kernel themselves.
        script = tmp_path / "fresh_workers.py"
        script.write_text(FRESH_WORKERS)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        res = subprocess.run(
            [sys.executable, str(script), method], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr

    def test_seed_changes_stream(self):
        assert not np.array_equal(trial_rng(1, 0).random(8), trial_rng(2, 0).random(8))
        # ... and distinct trials under one seed are independent streams too.
        assert not np.array_equal(trial_rng(1, 0).random(8), trial_rng(1, 1).random(8))


class TestStream:
    @pytest.mark.parametrize(
        "domain, model, rho, trials, counts, digest",
        [
            (
                build_house(5.0), mimo_mrc_2x2(1.0), 1.0, 400, (399, 399),
                "323b380b23847a09af5c622c32d2a1bb761345fe1db1a33ce8f9ab5ec83c25ee",
            ),
            # 50 disconnected trials with no isolated node.
            (
                build_half_cylinder(5.0, 4.0), mimo_mrc_2x2(1.0), 0.25, 400, (115, 165),
                "8cd853c9d820ddcf5a6f7790218786035c225161d5bf889f7dc3942b5f4352ea",
            ),
            (
                build_right_prism(HEX_BASE, 3.0), rayleigh(1.0, 3.0), 5.0, 400, (394, 394),
                "65e1cd85e6df1f78cb99fdae735c8a1bbfba7784efdbc03ed683e8913acacb31",
            ),
            (
                build_house(2.0), hard_disk(0.8), 1.0, 400, (1, 29),
                "89d4fb7aa2ab1122415fdf379aaab8fb37b1ee9f4d55e84ad4c4c2ef6090d733",
            ),
            # N = 375: three H blocks per trial.
            (
                build_house(10.0), mimo_mrc_2x2(1.0), 0.3, 400, (69, 91),
                "00acd5fa1e2da75bd18c2b7487420add3a1a7a3da0ef599389cae033430c7080",
            ),
            # N = 1250: 24 H blocks per trial, most of whose pairs lie past
            # r = 6.7, where H < 2^-53.
            (
                build_house(10.0), mimo_mrc_2x2(1.0), 1.0, 20, (20, 20),
                "b86c8bfdd271630bd42ee235f286f66dfc95fb67fb1be292027de64ed007c382",
            ),
        ],
        ids=[
            "house-mimo",
            "half-cylinder-mimo",
            "hex-prism-rayleigh",
            "house-hard-disk",
            "house-L10-mimo-3-blocks",
            "house-L10-mimo-24-blocks",
        ],
    )
    def test_pinned_counts(self, domain, model, rho, trials, counts, digest):
        # Any change to the random stream or the link decision moves these.
        # The digest pins each trial's outcome: counts alone miss two trials
        # that swap theirs.
        cfg = SimConfig(domain=domain, model=model, trials=trials, seed=7, rho=rho)
        r = estimate(cfg)
        assert (r.fc_count, r.min_deg_ge1_count) == counts
        connected, min_degree = map(np.concatenate, zip(*trial_outcomes(cfg, 0, trials)))
        data = connected.astype(np.uint8).tobytes() + min_degree.astype("<i8").tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


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
        with pytest.raises(SimulationError, match=r"^need at most 2\*\*63 - 1 trials$"):
            SimConfig(domain=d, model=m, trials=2**63, rho=1.0)
        assert SimConfig(domain=d, model=m, trials=2**63 - 1, rho=1.0).trials == 2**63 - 1
        for rho in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SimulationError):
                SimConfig(domain=d, model=m, trials=1, rho=rho)


class TestStatistics:
    def test_per_trial_implication(self):
        cfg = SimConfig(domain=build_house(2.0), model=mimo_mrc_2x2(1.0), trials=1, rho=1.0)
        for connected, min_degree in outcomes(cfg, 0, 2000):
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

    @pytest.mark.parametrize(
        "model",
        [mimo_mrc_2x2(1.3), rayleigh(0.7, 3.0), hard_disk(0.8)],
        ids=["mimo", "rayleigh", "hard_disk"],
    )
    def test_result_names_the_model(self, model):
        cfg = SimConfig(domain=build_house(2.0), model=model, trials=2, rho=1.0)
        d = estimate(cfg).to_dict()
        assert d["domain"] == cfg.domain.to_spec()
        assert model_from_spec(d["model"]) == model

    def test_sweep_requires_increasing(self):
        with pytest.raises(SimulationError):
            sweep(build_house(2.0), mimo_mrc_2x2(1.0), [1.0, 0.5], trials=10)
