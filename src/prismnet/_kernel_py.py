"""Pair-graph kernel: link draws and connectivity of a batch of trials.

A batch holds B trials of n nodes each.  Within a trial, pair p is (i, j),
i < j, in row-major condensed order, the order scipy's pdist uses.  The
batch lays its trials' pairs end to end, so pair p of trial t is batch pair
t P + p, with P = n(n-1)/2; it is linked when u < H(|x_i - x_j|), where u
is the p-th uniform drawn from trial t's own generator.

The uniforms, H and the link test run over blocks of BLOCK batch pairs, so
their buffers stay in cache and live in a ``Workspace`` that a run of
batches reuses; only the squared distances span all pairs.  A block may
cross trial boundaries: it draws each trial's stretch of it from that
trial's generator, so every trial's uniforms continue one stream.  The
batch is then decided as one graph, the disjoint union of its trials'
graphs, on the list of linked pairs, so no n x n array is allocated.
"""

from __future__ import annotations

import numpy as np

from .channel import ConnectivityModel, h_of_d2

# Pairs per H block: a block's uniforms, its slice of d2 and its H and
# scratch buffers, 256 KiB each, fit together in L2 cache.
BLOCK = 1 << 15

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
    """Reusable buffers for batches of up to ``trials`` trials of n nodes.

    ``d2`` holds the squared distances of all the batch's pairs, trial t's
    in ``slot(t)``, and once the links are found its bytes hold their
    columns as intp; ``u``, ``h``, ``scratch`` and ``link`` hold one block
    of pair uniforms, H, its intermediate and the link test.  Row r of the
    batch is row r mod (n-1) of trial r // (n-1): ``starts[r]`` is the batch
    pair where it begins (and ``starts[-1]`` is the batch's pair count),
    ``nodes[r]`` its node in the batch's union graph, and ``shift[r]`` takes
    its pairs to their columns, j = k + shift[r].
    These and the link indices are int32 while the batch's pairs fit.
    """

    def __init__(self, n: int, trials: int):
        self.n = n
        self.trials = trials
        self.pairs = n * (n - 1) // 2
        size = trials * self.pairs
        block = min(size, BLOCK)
        self.index = np.int32 if size < 2**31 else np.int64
        self.d2 = np.empty(size)
        self.u = np.empty(block)
        self.h = np.empty(block)
        self.scratch = np.empty(block)
        self.link = np.empty(block, dtype=bool)
        rows = np.arange(n - 1)
        first = np.arange(trials)[:, None]
        starts = rows * n - rows * (rows + 1) // 2 + first * self.pairs
        nodes = rows + first * n
        self.starts = np.append(starts, size).astype(self.index)
        self.nodes = nodes.ravel().astype(self.index)
        self.shift = (nodes + 1 - starts).ravel().astype(self.index)

    def slot(self, t: int) -> np.ndarray:
        """Trial t's squared distances, in pair order."""
        return self.d2[t * self.pairs : (t + 1) * self.pairs]


# The link arrays peak at four index arrays' worth of one entry per link:
# the rows i and the link indices k, and besides them one of these: the
# repeated row shifts that turn k into the columns j; the search's two flags
# per link, its crossing links (intp) and the ends taken from them, which
# cross fewer than half the pairs.  j is then copied as intp into the spent
# squared distances and k freed.  Joining the per-block link indices holds
# two.
LINK_ARRAYS = 4
# A block's u, h, scratch and link test, and the intp indices of its links.
BLOCK_BYTES = 8 + 8 + 8 + 1 + 8
# Per trial: its generator, about 950 bytes by tracemalloc's count, and its
# share of the batch's bookkeeping, the sampler's included.  Per node: its
# position (24 bytes) and the uniforms that sample it (up to 32), the row
# tables, the degree counts, reach flags and the search's intp rows, and
# the temporaries that build them.
TRIAL_BYTES = 2048
NODE_BYTES = 120


def workspace_bytes(n) -> float:
    """Peak bytes of a batch of trials of n nodes when every pair links: a
    full ``Workspace``'s squared distances and block buffers, the link
    arrays (4-byte indices while the batch's pairs fit in int32), and the
    trials' generators, positions and node arrays."""
    trials = batch_trials(n)
    pairs = 0.5 * n * (n - 1) * trials
    index = 4.0 if pairs < 2**31 else 8.0
    return (
        (8.0 + index * LINK_ARRAYS) * pairs
        + BLOCK_BYTES * min(pairs, BLOCK)
        + (TRIAL_BYTES + NODE_BYTES * n) * trials
    )


def _links(rngs, model: ConnectivityModel, ws: Workspace) -> np.ndarray:
    """Batch pair indices k of the links, u < H(d2), in order, block by block.

    Each block's uniforms are drawn just before its test, each trial's
    stretch from its own generator; consecutive draws continue one stream,
    so a trial's pair gets the same uniform as one draw of all its pairs
    would give it.
    """
    pairs = ws.pairs
    size = len(rngs) * pairs
    found = []
    for s in range(0, size, BLOCK):
        b = min(BLOCK, size - s)
        for t in range(s // pairs, (s + b - 1) // pairs + 1):
            lo, hi = max(s, t * pairs), min(s + b, (t + 1) * pairs)
            rngs[t].random(out=ws.u[lo - s : hi - s])
        h = h_of_d2(model, ws.d2[s : s + b], out=ws.h[:b], scratch=ws.scratch[:b])
        k = np.flatnonzero(np.less(ws.u[:b], h, out=ws.link[:b]))
        found.append(np.add(k, s, dtype=ws.index))
    return np.concatenate(found)


def _reached(m: int, seeds, rows, per_row, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Which of the m nodes the links (i[l], j[l]) connect to a seed.

    The links come in row order: ``per_row[r]`` of them start at node
    ``rows[r]``.  Grows the set reached from the seeds by both ends of every
    link that crosses its boundary, until no link does.  Each link's start
    is looked up once per row and repeated over the row's links, and its end
    j is an intp, so no take casts int32 indices; an iteration allocates
    only the start flags and the crossing links.
    """
    seen = np.zeros(m, dtype=bool)
    seen[seeds] = True
    rows = rows.astype(np.intp)
    end_seen = np.empty(j.size, dtype=bool)
    while True:
        start_seen = seen.take(rows).repeat(per_row)
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
    # The links come in pair order, so each row's links are one run of them.
    rows = trials * (n - 1)
    cuts = np.searchsorted(k, ws.starts[: rows + 1])
    per_row = cuts[1:] - cuts[:-1]
    i = ws.nodes[:rows].repeat(per_row)
    # The columns k + shift[row], built in the link indices' place.
    k += ws.shift[:rows].repeat(per_row)
    # The squared distances are spent: their 8 bytes per pair take the
    # columns as intp, so that neither bincount nor the search casts them.
    j = ws.d2[: k.size].view(np.intp)
    j[...] = k
    del k
    m = trials * n
    degree = np.bincount(j, minlength=m)
    degree[ws.nodes[:rows]] += per_row
    min_degree = degree.reshape(trials, n).min(axis=1)
    # An isolated node disconnects any graph of two or more nodes.
    connected = min_degree > 0
    if connected.any():
        seen = _reached(m, np.arange(0, m, n), ws.nodes[:rows], per_row, i, j)
        connected &= seen.reshape(trials, n).all(axis=1)
    return connected, min_degree
