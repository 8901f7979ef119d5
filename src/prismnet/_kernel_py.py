"""Pair-graph kernel: link draws and connectivity of one trial's node set.

Pair k is (i, j), i < j, in row-major condensed order, the order scipy's
pdist uses; pair k is linked when u[k] < H(|x_i - x_j|).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist

from .channel import ConnectivityModel, h_of_d2


def pair_graph_stats(pos, u, model: ConnectivityModel) -> tuple[bool, int]:
    """Return (connected, min_degree) of the random link graph."""
    n = pos.shape[0]
    if n == 1:
        return True, 0
    k = np.flatnonzero(u < h_of_d2(model, pdist(pos, "sqeuclidean")))
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
