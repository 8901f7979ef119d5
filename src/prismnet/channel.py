"""Pair connectedness functions H(r) and their full-space connection masses.

Three link families are provided.  Each smooth one is a table of rate
polynomials, H = sum_a exp(-a x) P_a(x) in x = beta r^eta = (r / r0)^eta,
which gives H, H' and the radial moments that are the connection masses:

* ``mimo_mrc_2x2`` -- 2x2 MIMO with transmit beamforming and MRC reception
  over i.i.d. Rayleigh channels, eta = 2: P_1 = x^2 + 2 and P_2 = -1.
* ``rayleigh`` -- single-antenna Rayleigh outage link, P_1 = 1: H = exp(-x).
* ``hard_disk`` -- on/off connection at range r0 (the eta -> infinity limit).

``beta`` absorbs transmit power, noise power, and rate threshold; the
effective communication range is r0 = beta^(-1/eta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import InputError, read_spec

MIMO_MRC_2X2 = "mimo_mrc_2x2"
RAYLEIGH = "rayleigh"
HARD_DISK = "hard_disk"

# Each smooth family's rate polynomials (P_1, P_2, ...), by ascending power of x.
_TERMS = {MIMO_MRC_2X2: ((2.0, 0.0, 1.0), (-1.0,)), RAYLEIGH: ((1.0,),)}
# dH/dx has the same form, with P_a' - a P_a for each P_a.
_SLOPES = {f: tuple(tuple((j + 1) * u - a * c for j, (c, u) in enumerate(zip(p, p[1:] + (0.0,))))
                    for a, p in enumerate(ps, 1)) for f, ps in _TERMS.items()}
_X_MAX = 746.0  # exp(-x) = 0 past 745.2: x capped here keeps x^k finite, changes no finite H


class ModelError(InputError):
    """Invalid connectivity-model specification."""


@dataclass(frozen=True)
class ConnectivityModel:
    family: str
    beta: float
    eta: float

    def __post_init__(self):
        if self.family not in _MODEL_FIELDS:
            raise ModelError(f"unknown family {self.family!r}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ModelError("beta must be positive and finite")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ModelError("eta must be positive and finite")
        if self.family == MIMO_MRC_2X2 and self.eta != 2.0:
            raise ModelError("the 2x2 MIMO MRC closed form requires eta = 2")
        if self.family == RAYLEIGH and self.eta < 2.0:
            raise ModelError("path-loss exponent must be >= 2")

    @property
    def r0(self) -> float:
        """Effective communication range beta^(-1/eta)."""
        return self.beta ** (-1.0 / self.eta)

    @property
    def smooth(self) -> bool:
        """True when H is differentiable (needed by the quadrature oracle)."""
        return self.family in _TERMS

    def to_spec(self) -> dict:
        """The spec ``model_from_spec`` builds this model from."""
        if self.family == HARD_DISK:
            # beta = r0**-2 rounds, so beta**-0.5 can miss r0 by an ulp: write
            # the neighbour that ``hard_disk`` maps back to this beta.
            r0 = self.r0
            for r in (r0, math.nextafter(r0, 0.0), math.nextafter(r0, math.inf)):
                if r**-2 == self.beta:
                    return {"family": HARD_DISK, "r0": r}
            return {"family": HARD_DISK, "r0": r0}
        return {"family": self.family, "beta": self.beta, "eta": self.eta}


def mimo_mrc_2x2(beta: float) -> ConnectivityModel:
    return ConnectivityModel(MIMO_MRC_2X2, float(beta), 2.0)


def rayleigh(beta: float, eta: float = 2.0) -> ConnectivityModel:
    return ConnectivityModel(RAYLEIGH, float(beta), float(eta))


def hard_disk(r0: float) -> ConnectivityModel:
    # Stored with eta = 2 so that beta = r0^-2 keeps r0 = beta^(-1/eta).
    if not (math.isfinite(r0) and r0 > 0):
        raise ModelError("hard-disk range must be positive and finite")
    try:
        beta = float(r0) ** -2
    except OverflowError:
        raise ModelError(f"hard-disk range {r0!r} is too small: r0**-2 overflows") from None
    if beta < np.finfo(float).tiny:  # a subnormal beta would move r0
        raise ModelError(f"hard-disk range {r0!r} is too large: r0**-2 underflows")
    return ConnectivityModel(HARD_DISK, beta, 2.0)


def _distance(r):
    """r as a float64 array, checked non-negative."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ModelError("distance must be non-negative")
    return r


def h(model: ConnectivityModel, r) -> np.ndarray | float:
    """Direct-link probability at distance r (vectorized)."""
    r = _distance(r)
    out = h_of_d2(model, r * r)
    return float(out) if out.ndim == 0 else out


def h_of_d2(model: ConnectivityModel, d2) -> np.ndarray:
    """Same as h() but from squared distance; the form the simulator and the
    quadrature oracle use.  It writes only arrays it allocates, so d2 is left
    untouched, and works in place on them.  A scalar d2 gives a 0-d result."""
    d2 = np.asarray(d2, dtype=float)
    if not model.smooth:
        return (d2 <= model.r0**2).astype(float)
    x = np.power(d2, 0.5 * model.eta, out=np.empty(d2.shape))  # an array, even 0-d
    x *= model.beta
    return _series(_TERMS[model.family], x)


def _series(polys, x: np.ndarray) -> np.ndarray:
    """sum_a exp(-a x) P_a(x), by Horner's rule in e = exp(-x) from the highest
    rate down and in x within each P_a.  Caps the array x at _X_MAX in place."""
    np.minimum(x, _X_MAX, out=x)
    e = np.exp(-x, out=np.empty(x.shape))
    out = None
    for p in reversed(polys):
        term = p[-1]
        for c in p[-2::-1]:
            term *= x  # a new array while term is a number; in place after
            term += c
        out = term if out is None else term + out * e
    e *= out
    return e


def h_prime(model: ConnectivityModel, r) -> np.ndarray | float:
    """dH/dr = (eta / r0) s^(eta-1) dH/dx, x = s^eta, s = r / r0; for the quadrature oracle."""
    if not model.smooth:
        raise ModelError("hard-disk H has no derivative")
    s = np.minimum(_distance(r) / model.r0, _X_MAX ** (1.0 / model.eta))
    out = _series(_SLOPES[model.family], np.power(s, model.eta, out=np.empty(s.shape)))
    out *= model.eta / model.r0 * np.power(s, model.eta - 1.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _moment(model: ConnectivityModel, k: int) -> float:
    """int_0^inf r^k H(r) dr = r0^(k+1) sum c Gamma(q) / (eta a^q), over each
    coefficient c of x^j in each P_a, with q = j + (k+1) / eta."""
    scale, eta = model.beta ** (-(k + 1) / model.eta), model.eta
    if not model.smooth:  # the hard disk: int_0^r0 r^k dr
        return scale / (k + 1)
    polys = enumerate(_TERMS[model.family], 1)
    terms = ((c, j + (k + 1) / eta, a) for a, p in polys for j, c in enumerate(p))
    return scale * sum(c * math.gamma(q) / (eta * a**q) for c, q, a in terms)


def bulk_mass(model: ConnectivityModel) -> float:
    """Full-space connection mass M = 4 pi * int_0^inf r^2 H(r) dr."""
    return 4.0 * np.pi * _moment(model, 2)


def face_mass(model: ConnectivityModel) -> float:
    """Connection mass of the plane through a node, A = 2 pi * int_0^inf r H(r) dr.

    A node at depth d below a flat face has link mass M/2 + A d to first
    order, so A sets every boundary term's prefactor.
    """
    return 2.0 * np.pi * _moment(model, 1)


# Each family's spec fields besides "family", and whether a spec must give each.
_MODEL_FIELDS = {
    MIMO_MRC_2X2: {"beta": True, "eta": False},
    RAYLEIGH: {"beta": True, "eta": False},
    HARD_DISK: {"r0": True},
}


def model_from_spec(spec: dict) -> ConnectivityModel:
    """Build a model from its specification, a dict of one of these forms::

        {"family": "mimo_mrc_2x2", "beta": 1.0}
        {"family": "rayleigh", "beta": 1.0, "eta": 2.0}
        {"family": "hard_disk", "r0": 1.0}
    """
    family, number = read_spec(spec, "model", "family", _MODEL_FIELDS, ModelError)
    if family == HARD_DISK:
        return hard_disk(number(spec["r0"]))
    return ConnectivityModel(family, number(spec["beta"]), number(spec.get("eta", 2.0)))
