"""Machine-speed sampling for the prismnet benchmark.

On a shared host the speed of one core drifts by up to 2x within
seconds, as neighbours come and go, so raw wall times of the same code
spread too widely to gate on.  ``SpeedMeter.time`` runs a call while a
SIGALRM handler times a fixed probe of about 5 ms every ``period_s``
seconds.  A call's normalised time is its wall time minus the time spent
in probes, rescaled by ``PROBE_REF_S`` over the median probe time seen
around and during the call: the seconds the call would take on a machine
where one probe takes ``PROBE_REF_S``.  Probes are timed in the probing
thread's CPU time, so a probe that waits for a core (taken by the
benchmark's own child processes) does not read as a slow machine.

Neighbours slow kinds of work by different amounts, so each workload
names the probe closest to its own work: numpy passes over a 2 MB array
(``array``) or over freshly allocated arrays (``alloc``), small pdist /
sparse-graph passes (``graph``), or scipy ``quad`` over a Python integrand
(``quad``).  The probes use only numpy and scipy on fixed inputs, never
prismnet, so a change to the library moves the normalised time and leaves
the probe alone.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import pdist

PERIOD_S = 0.2
# Nominal probe time: normalised seconds are seconds at this probe speed.
PROBE_REF_S = 0.005

_A = np.random.default_rng(0).random(262_144)
_B = np.empty_like(_A)
_N = 156
_POS = 5.0 * np.random.default_rng(1).random((_N, 3))
_U = np.random.default_rng(2).random(_N * (_N - 1) // 2)
_WAVENUMBERS = [float(k) for k in range(1, 7)]


def array_probe() -> None:
    """An interpreter loop, then numpy passes over 2 MB."""
    s = 0
    for i in range(12_000):
        s += i * i % 7
    np.multiply(_A, _A, out=_B)
    np.sqrt(_B, out=_B)
    np.add(_B, _A, out=_B)
    np.floor(_B, out=_B)
    np.multiply(_A, 1.5, out=_B)
    np.sin(_B, out=_B)


def alloc_probe() -> None:
    """numpy passes over freshly allocated 1.6 MB arrays, as large-N trials allocate.

    Allocation is what makes this track mc-large: the same passes over
    preallocated arrays tracked it no better than ``array_probe``.
    """
    for seed in (3, 4):
        x = np.random.default_rng(seed).random(200_000)
        y = np.sqrt(x * x + 1.0)
        x = y - np.floor(y)


def graph_probe() -> None:
    """Random link graphs on fixed points, built and searched with scipy."""
    for _ in range(10):
        d2 = pdist(_POS, "sqeuclidean")
        e = np.exp(-0.3 * d2)
        linked = _U < e * (0.09 * d2 + 2.0 - e)
        ii, jj = np.triu_indices(_N, k=1)
        ii, jj = ii[linked], jj[linked]
        np.bincount(ii, minlength=_N)
        graph = coo_matrix((np.ones(len(ii)), (ii, jj)), shape=(_N, _N))
        connected_components(graph, directed=False, return_labels=False)


def _damped_cos(x: float, k: float) -> float:
    # numpy on 0-d arrays, as prismnet's h and h' evaluate a scalar distance
    r = np.asarray(x, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("negative abscissa")
    return float(np.exp(-0.1 * r) * np.cos(k * r))


def quad_probe() -> None:
    """Adaptive quadrature of a Python integrand, about 800 evaluations; never warns."""
    for k in _WAVENUMBERS:
        quad(_damped_cos, 0.0, 10.0, args=(k,))


PROBES = {"array": array_probe, "alloc": alloc_probe, "graph": graph_probe, "quad": quad_probe}


@dataclass
class Timing:
    raw_s: float  # wall time of the call, probes included
    net_s: float  # wall time minus time spent in probes
    probe_s: float  # median probe CPU time around and during the call

    @property
    def norm_s(self) -> float:
        return self.net_s * PROBE_REF_S / self.probe_s


class SpeedMeter:
    def __init__(self, probe: str, period_s: float | None = PERIOD_S):
        self.probe = PROBES[probe]
        self.period_s = period_s
        self._samples: list[float] = []  # probe CPU times
        self._walls: list[float] = []  # probe wall times
        self._busy = False
        for _ in range(20):  # warm the probe's code and arrays
            self.probe()

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        try:
            t0, c0 = time.perf_counter(), time.thread_time()
            self.probe()
            self._samples.append(time.thread_time() - c0)
            self._walls.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def time(self, fn, *args):
        """fn(*args) and its Timing.

        A probe runs just before and just after the call, outside its wall
        time, and every period_s during it unless period_s is None.
        """
        self._samples = []
        self._walls = []
        self._sample()
        periodic = self.period_s is not None
        if periodic:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            if periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
            raw = time.perf_counter() - t0
            if periodic:
                signal.signal(signal.SIGALRM, previous)
        inside = sum(self._walls[1:])
        self._sample()
        return out, Timing(raw, raw - inside, statistics.median(self._samples))
