"""Pair-graph kernel: link draws and connectivity of one trial's node set.

Pair k is (i, j), i < j, in row-major condensed order, the order scipy's
pdist uses; pair k is linked when u[k] < H(|x_i - x_j|).

H and the link test run over blocks of BLOCK pairs, so their
intermediates stay in cache and live in a ``Workspace`` that a run of
trials reuses; only the pair uniforms and squared distances span all
pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist

from .channel import ConnectivityModel, h_of_d2

# Pairs per H block: a block's slices of u and d2 and its H and scratch
# buffers, 256 KiB each, fit together in L2 cache.
BLOCK = 1 << 15


class Workspace:
    """Reusable buffers for trials of n nodes.

    ``u`` and ``d2`` hold the pair uniforms and squared distances (two
    float64 arrays of n(n-1)/2); ``h``, ``scratch`` and ``link`` hold one
    block of H, its intermediate and the link test.
    """

    def __init__(self, n: int):
        pairs = n * (n - 1) // 2
        block = min(pairs, BLOCK)
        self.u = np.empty(pairs)
        self.d2 = np.empty(pairs)
        self.h = np.empty(block)
        self.scratch = np.empty(block)
        self.link = np.empty(block, dtype=bool)


def _links(u, d2, model: ConnectivityModel, ws: Workspace) -> np.ndarray:
    """Indices k of the linked pairs, u[k] < H(d2[k]), block by block."""
    found = []
    for s in range(0, d2.size, BLOCK):
        b = min(BLOCK, d2.size - s)
        h = h_of_d2(model, d2[s : s + b], out=ws.h[:b], scratch=ws.scratch[:b])
        k = np.flatnonzero(np.less(u[s : s + b], h, out=ws.link[:b]))
        found.append(k + s)
    return np.concatenate(found)


def pair_graph_stats(pos, u, model: ConnectivityModel, workspace=None) -> tuple[bool, int]:
    """Return (connected, min_degree) of the random link graph.

    ``workspace`` is a ``Workspace(len(pos))`` to reuse; without one the
    call makes its own.
    """
    n = pos.shape[0]
    if n == 1:
        return True, 0
    ws = Workspace(n) if workspace is None else workspace
    k = _links(u, pdist(pos, "sqeuclidean", out=ws.d2), model, ws)
    # Row i of the condensed matrix starts at i*n - i(i+1)/2.
    rows = np.arange(n - 1)
    starts = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    min_degree = int((np.bincount(i, minlength=n) + np.bincount(j, minlength=n)).min())
    if min_degree == 0:
        # An isolated node disconnects any graph of two or more nodes.
        return False, 0
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = True
    adj[j, i] = True
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    front = np.zeros(1, dtype=np.intp)
    while front.size:
        new = adj[front].any(axis=0) & ~seen
        seen |= new
        front = np.flatnonzero(new)
    return bool(seen.all()), min_degree
