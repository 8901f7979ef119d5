"""Pair-graph kernel: link draws and connectivity of a batch of trials.

A batch holds B trials of n nodes each.  Within a trial, pair p is (i, j),
i < j, in row-major condensed order, the order scipy's pdist uses.  The
batch lays its trials' pairs end to end, so pair p of trial t is batch pair
t P + p, with P = n(n-1)/2; it is linked when u < H(|x_i - x_j|), where u
is the p-th uniform drawn from trial t's own generator.

The uniforms, H and the link test run over blocks of BLOCK batch pairs,
so their temporaries stay in cache; only the squared distances, which a
``Workspace`` holds for a run of batches, span all pairs.  A block may
cross trial boundaries: it draws each trial's stretch of it from that
trial's generator, so every trial's uniforms continue one stream.

Most pairs are too far apart to link, so a block evaluates H only on its
candidates: the pairs whose uniform falls below an upper bound on H over
their bin of squared distance, read from a per-model table.  H decreases in
d2 for every family, so H at a bin's least d2, raised past its rounding,
bounds the bin, and every bound is positive; the candidates then hold every
pair with u < H, and the links are exactly those of u < H on every pair.

The batch is then decided as one graph, the disjoint union of its trials'
graphs, on the list of linked pairs, so no n x n array is allocated.
``workspace_bytes`` counts its worst-case peak.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ConnectivityModel, h_of_d2

# Pairs per H block: a block's uniforms, bins, bounds and slice of d2,
# 256 KiB each, and its candidates' indices, gathered u and d2 and H
# temporaries, fit together in L2 cache.
BLOCK = 1 << 15

# The bound table's bins: a float64's bits shifted right by BIN_SHIFT keep
# its exponent and its top 5 mantissa bits, so a non-negative d2's bin is
# monotone in d2, and 32 bins, log-spaced, span each octave.  The table
# holds TABLE_BINS of them, from r0^2 / 16 up, 10 octaves to 64 r0^2, where
# H < 2^-53 for every family; take(mode="clip") maps the bins below its
# first to its first entry, which bounds H(0), and those past its top to
# its last.  The table's bins all lie below the bin of inf.
BIN_SHIFT = 47
TABLE_BINS = 10 * 32 + 1
_INF_BIN = 0x7FF << (52 - BIN_SHIFT)

# Pairs per batch: a batch holds BATCH // P trials, at least one, so small
# trials share each numpy call.  At most MAX_TRIALS, which bounds the
# generators a batch holds when P is tiny.
BATCH = 1 << 17
MAX_TRIALS = 1 << 8


def batch_trials(n) -> int:
    """Trials per batch of trials of n nodes."""
    pairs = 0.5 * n * (n - 1)
    return int(min(MAX_TRIALS, max(1, BATCH // pairs))) if pairs else MAX_TRIALS


class Workspace:
    """Reusable squared distances and index tables for batches of up to
    ``trials`` trials of n nodes.

    ``d2`` holds the squared distances of all the batch's pairs, trial t's
    in ``slot(t)``, and once the links are found its bytes hold their
    columns as intp.  Node v = t n + i of the batch's union graph is node i
    of trial t: its pairs (i, j > i) start at batch pair ``starts[v]`` =
    t P + i n - i(i+1)/2, so a trial's last node has an empty run, and
    ``shift[v]`` takes them to their columns, j = k + shift[v].  These and
    the link indices are int32 while the batch's pairs fit.
    """

    def __init__(self, n: int, trials: int):
        self.n = n
        self.trials = trials
        self.pairs = n * (n - 1) // 2
        size = trials * self.pairs
        self.index = np.int32 if size < 2**31 else np.int64
        self.d2 = np.empty(size)
        # One entry past the last node: its start is the batch's pair count.
        v = np.arange(trials * n + 1)
        t, i = np.divmod(v, n)
        starts = t * self.pairs + i * n - i * (i + 1) // 2
        self.starts = starts.astype(self.index)
        self.shift = (v + 1 - starts).astype(self.index)

    def slot(self, t: int) -> np.ndarray:
        """Trial t's squared distances, in pair order."""
        return self.d2[t * self.pairs : (t + 1) * self.pairs]


# The link arrays peak at four index arrays' worth of one entry per link:
# the link starts i and the link indices k, and besides them one of these:
# the repeated node shifts that turn k into the columns j; the search's two
# flags per link, its crossing links (intp) and the ends taken from them,
# which cross fewer than half the pairs.  j is then copied as intp into the
# spent squared distances and k freed.  Joining the per-block link indices
# holds two.
LINK_ARRAYS = 4
# A block's uniforms, bins (int64) and bounds, and, when every pair is a
# candidate, the candidates' intp indices, their gathered u and d2 and H's
# two temporaries; the candidate test and the link test, one byte each,
# and the links' intp indices are alive only when fewer of these are.
BLOCK_BYTES = 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8
# The bound table of the model in use, the one ``_bound_table`` keeps.
TABLE_BYTES = 8 * TABLE_BINS
# Per trial: its generator, about 950 bytes by tracemalloc's count, and its
# share of the batch's bookkeeping, the sampler's included.  Per node: its
# position (24 bytes) and the uniforms that sample it (up to 32), its
# entries in the index tables, its run length, degree count and reach
# flag, and the temporaries that build them.
TRIAL_BYTES = 2048
NODE_BYTES = 120


def workspace_bytes(n) -> float:
    """Peak bytes of a full batch of trials of n nodes when every pair links,
    the simulator's one memory model: per pair, 8 bytes of squared distance
    (later the link columns, as intp) and LINK_ARRAYS index arrays, 4-byte
    while the batch's pairs fit in int32; BLOCK_BYTES per pair of one H
    block and TABLE_BYTES of H bounds; TRIAL_BYTES per trial and NODE_BYTES
    per node."""
    trials = batch_trials(n)
    pairs = 0.5 * n * (n - 1) * trials
    index = 4.0 if pairs < 2**31 else 8.0
    return (
        (8.0 + index * LINK_ARRAYS) * pairs
        + BLOCK_BYTES * min(pairs, BLOCK)
        + TABLE_BYTES
        + (TRIAL_BYTES + NODE_BYTES * n) * trials
    )


@functools.lru_cache(maxsize=1)
def _bound_table(model: ConnectivityModel) -> tuple[int, np.ndarray]:
    """(first, bound): bound[i] >= h_of_d2(model, d2) for every d2 of bin
    first + i, entry 0 taking every bin below and the last every bin above.

    An entry is ``h_of_d2`` at its bin's least d2 (0 for entry 0) times
    1 + 2^-40, then raised two ulps: that covers the rounding of H wherever
    H >= 2^-53.  Below that only a uniform of exactly 0 links, and every
    bound is positive, so such a pair is still a candidate.
    """
    # r0 * r0 rounds to inf past float64's range, where r0**2 would raise.
    bits = np.float64(model.r0 * model.r0 / 16).view(np.int64)
    first = min(int(bits) >> BIN_SHIFT, _INF_BIN - TABLE_BINS)
    least = (np.arange(first, first + TABLE_BINS, dtype=np.int64) << BIN_SHIFT).view(float)
    least[0] = 0.0
    bound = h_of_d2(model, least)
    bound *= 1.0 + 2.0**-40
    for _ in range(2):
        np.nextafter(bound, np.inf, out=bound)
    bound.flags.writeable = False
    return first, bound


def _links(rngs, model: ConnectivityModel, ws: Workspace) -> np.ndarray:
    """Batch pair indices k of the links, u < H(d2), in order, block by block.

    Each block's uniforms are drawn just before its test, each trial's
    stretch from its own generator; consecutive draws continue one stream,
    so a trial's pair gets the same uniform as one draw of all its pairs
    would give it.  H is evaluated only on the block's candidates, the
    pairs with u below their bin's bound.
    """
    first, table = _bound_table(model)
    pairs = ws.pairs
    size = len(rngs) * pairs
    m = min(size, BLOCK)
    u, bins, bound = np.empty(m), np.empty(m, dtype=np.int64), np.empty(m)
    found = []
    for s in range(0, size, BLOCK):
        b = min(BLOCK, size - s)
        for t in range(s // pairs, (s + b - 1) // pairs + 1):
            lo, hi = max(s, t * pairs), min(s + b, (t + 1) * pairs)
            rngs[t].random(out=u[lo - s : hi - s])
        d2 = ws.d2[s : s + b]
        np.right_shift(d2.view(np.int64), BIN_SHIFT, out=bins[:b])
        bins[:b] -= first
        table.take(bins[:b], out=bound[:b], mode="clip")
        c = np.flatnonzero(u[:b] < bound[:b])
        k = c[u[:b].take(c) < h_of_d2(model, d2.take(c))]
        found.append(np.add(k, s, dtype=ws.index))
    return np.concatenate(found)


def _reached(seeds, per_node, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Which nodes the links (i[l], j[l]) connect to a seed.

    The links come in node order: ``per_node[v]`` of them start at node v.
    Grows the set reached from the seeds by both ends of every link that
    crosses its boundary, until no link does.  Each link's start flag is
    node v's repeated over its run, and its end j is an intp, so no take
    casts int32 indices; an iteration allocates only the start flags and
    the crossing links.
    """
    seen = np.zeros(per_node.size, dtype=bool)
    seen[seeds] = True
    end_seen = np.empty(j.size, dtype=bool)
    while True:
        start_seen = seen.repeat(per_node)
        # Every index is a node, so "clip" clips nothing; it spares take a
        # buffered copy of its output.
        seen.take(j, out=end_seen, mode="clip")
        cross = np.flatnonzero(np.not_equal(start_seen, end_seen, out=start_seen))
        if not cross.size:
            return seen
        seen[i.take(cross)] = True
        seen[j.take(cross)] = True


def pair_graph_stats(rngs, model: ConnectivityModel, ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Return the (connected, min_degree) arrays of a batch of random link graphs.

    Trial t of the batch has its squared distances in ``ws.slot(t)``, and
    ``rngs[t]`` supplies its pair uniforms, P of them in pair order, through
    ``random(out=...)``; ``ws`` is a ``Workspace`` of n nodes and at least
    ``len(rngs)`` trials.
    """
    trials, n = len(rngs), ws.n
    if n == 1:
        return np.ones(trials, dtype=bool), np.zeros(trials, dtype=int)
    k = _links(rngs, model, ws)
    # The links come in pair order, so each node's links are one run of them.
    m = trials * n
    cuts = np.searchsorted(k, ws.starts[: m + 1])
    per_node = cuts[1:] - cuts[:-1]
    i = np.arange(m, dtype=ws.index).repeat(per_node)
    # The columns k + shift[node], built in the link indices' place.
    k += ws.shift[:m].repeat(per_node)
    # The squared distances are spent: their 8 bytes per pair take the
    # columns as intp, so that neither bincount nor the search casts them.
    j = ws.d2[: k.size].view(np.intp)
    j[...] = k
    del k
    degree = np.bincount(j, minlength=m) + per_node
    min_degree = degree.reshape(trials, n).min(axis=1)
    # An isolated node disconnects any graph of two or more nodes.
    connected = min_degree > 0
    if connected.any():
        seen = _reached(np.arange(0, m, n), per_node, i, j)
        connected &= seen.reshape(trials, n).all(axis=1)
    return connected, min_degree
