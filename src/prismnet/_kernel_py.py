"""Pair-graph kernel: link draws and connectivity of one trial's node set.

Pair k is (i, j), i < j, in row-major condensed order, the order scipy's
pdist uses; pair k is linked when u[k] < H(|x_i - x_j|), where u[k] is the
k-th uniform the kernel draws from the trial's generator.

The uniforms, H and the link test run over blocks of BLOCK pairs, so their
buffers stay in cache and live in a ``Workspace`` that a run of trials
reuses; only the squared distances span all pairs.  Connectivity is decided
on the list of linked pairs, so no n x n array is allocated.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist

from .channel import ConnectivityModel, h_of_d2

# Pairs per H block: a block's uniforms, its slice of d2 and its H and
# scratch buffers, 256 KiB each, fit together in L2 cache.
BLOCK = 1 << 15


class Workspace:
    """Reusable buffers for trials of n nodes.

    ``d2`` holds the squared distances of all n(n-1)/2 pairs, and once
    the links are found its bytes hold the search's flags; ``u``, ``h``,
    ``scratch`` and ``link`` hold one block of pair uniforms, H, its
    intermediate and the link test; ``starts[i]`` is the condensed index of
    pair (i, i + 1), where row i begins.
    """

    def __init__(self, n: int):
        pairs = n * (n - 1) // 2
        block = min(pairs, BLOCK)
        self.d2 = np.empty(pairs)
        self.u = np.empty(block)
        self.h = np.empty(block)
        self.scratch = np.empty(block)
        self.link = np.empty(block, dtype=bool)
        rows = np.arange(n - 1)
        self.starts = rows * n - rows * (rows + 1) // 2


# A trial holds at most five int64 arrays of one entry per link: the link
# indices k, their rows i and columns j, and, in the search, the crossing
# links and the ends taken from them (before that, two temporaries of j).
LINK_ARRAYS = 5


def workspace_bytes(n) -> float:
    """Peak bytes of a trial of n nodes when every pair links: a
    ``Workspace(n)``'s squared distances and block buffers (u, h, scratch
    and link: 25 bytes per block pair), plus the link arrays.  The arrays
    that grow with the nodes are left out."""
    pairs = 0.5 * n * (n - 1)
    return (8.0 + 8.0 * LINK_ARRAYS) * pairs + 25.0 * min(pairs, BLOCK)


def _links(rng, d2, model: ConnectivityModel, ws: Workspace) -> np.ndarray:
    """Indices k of the linked pairs, u[k] < H(d2[k]), block by block.

    Each block's uniforms are drawn just before its test; consecutive draws
    continue one stream, so pair k gets the same uniform as one draw of all
    pairs would give it.
    """
    found = []
    for s in range(0, d2.size, BLOCK):
        b = min(BLOCK, d2.size - s)
        u = rng.random(out=ws.u[:b])
        h = h_of_d2(model, d2[s : s + b], out=ws.h[:b], scratch=ws.scratch[:b])
        k = np.flatnonzero(np.less(u, h, out=ws.link[:b]))
        found.append(k + s)
    return np.concatenate(found)


def _reaches_all(n: int, i: np.ndarray, j: np.ndarray, flags: np.ndarray) -> bool:
    """Whether the links (i[m], j[m]) connect all n nodes.

    Grows the set reached from node 0 by both ends of every link that
    crosses its boundary, until no link does.  ``flags``, a bool array of at
    least 2 len(i) entries, holds whether each link end is reached, so an
    iteration allocates only the crossing links.
    """
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    si, sj = flags[: i.size], flags[i.size : 2 * i.size]
    while True:
        # Every index is a node, so "clip" clips nothing; it spares take a
        # buffered copy of its output.
        seen.take(i, out=si, mode="clip")
        seen.take(j, out=sj, mode="clip")
        cross = np.flatnonzero(np.not_equal(si, sj, out=si))
        if not cross.size:
            return bool(seen.all())
        seen[i.take(cross)] = True
        seen[j.take(cross)] = True


def pair_graph_stats(pos, rng, model: ConnectivityModel, workspace=None) -> tuple[bool, int]:
    """Return (connected, min_degree) of the random link graph.

    ``rng`` supplies the pair uniforms, n(n-1)/2 of them in pair order,
    through ``rng.random(out=...)``.  ``workspace`` is a
    ``Workspace(len(pos))`` to reuse; without one the call makes its own.
    """
    n = pos.shape[0]
    if n == 1:
        return True, 0
    ws = Workspace(n) if workspace is None else workspace
    k = _links(rng, pdist(pos, "sqeuclidean", out=ws.d2), model, ws)
    i = np.searchsorted(ws.starts, k, side="right") - 1
    j = k - ws.starts[i] + i + 1
    min_degree = int((np.bincount(i, minlength=n) + np.bincount(j, minlength=n)).min())
    if min_degree == 0:
        # An isolated node disconnects any graph of two or more nodes.
        return False, 0
    # The squared distances are spent: their 8 bytes per pair hold the
    # search's 2 flags per link.
    return _reaches_all(n, i, j, ws.d2.view(bool)), min_degree
