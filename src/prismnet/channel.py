"""Pair connectedness functions H(r) and their full-space connection masses.

Three link families are provided.  Each smooth one is also a term table,
H = sum c s^p exp(-a s^eta) in s = r / r0, whose term-wise derivative is H'
and whose radial moments are the connection masses:

* ``mimo_mrc_2x2`` -- 2x2 MIMO with transmit beamforming and MRC reception
  over i.i.d. Rayleigh channels, path-loss exponent fixed at 2:
  H(r) = exp(-b r^2) (b^2 r^4 + 2 - exp(-b r^2)).
* ``rayleigh`` -- single-antenna Rayleigh outage link, H(r) = exp(-b r^eta).
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

# The term tables, as (c, p, a); ``h_of_d2``, which simulated links u < H read, keeps its own form.
_TERMS = {MIMO_MRC_2X2: ((1, 4, 1), (2, 0, 1), (-1, 0, 2)), RAYLEIGH: ((1, 0, 1),)}


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
    quadrature oracle use.

    The first step allocates; the later ones work in place on its result, so
    d2 is left untouched.  A scalar d2 gives a 0-d result.
    """
    d2 = np.asarray(d2, dtype=float)
    if model.family == MIMO_MRC_2X2:
        # x = -beta d2, so e = exp(x) needs no negation pass; x*x is the same
        # either sign.
        x = np.multiply(d2, -model.beta)
        e = np.exp(x)
        # e * (x*x + 2 - e), built in x.
        x *= x
        x += 2.0
        x -= e
        e *= x
        return e
    if model.family == RAYLEIGH:
        # exp(-beta * d2**(eta/2)).
        y = np.power(d2, 0.5 * model.eta)
        y *= -model.beta
        return np.exp(y)
    return (d2 <= model.r0**2).astype(float)


def h_prime(model: ConnectivityModel, r) -> np.ndarray | float:
    """dH/dr from the term table, used by the quadrature oracle.  Smooth families only."""
    if not model.smooth:
        raise ModelError("hard-disk H has no derivative")
    s = _distance(r) / model.r0
    s_eta, eta, out = np.power(s, model.eta), model.eta, 0.0
    # d/ds of s^p e^(-a s^eta) is (p s^(p-1) - a eta s^(p+eta-1)) e^(-a s^eta): terms
    # of equal p share their powers of s, and terms of equal a their exponential.
    powers, exps = {}, {}
    for c, p, a in _TERMS[model.family]:
        if p not in powers:
            powers[p] = (p * np.power(s, p - 1.0) if p else 0.0), np.power(s, p + eta - 1.0)
        if a not in exps:
            exps[a] = np.exp(-a * s_eta)
        rise, fall = powers[p]
        out = out + c / model.r0 * (rise - a * eta * fall) * exps[a]
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=64)
def _moment(model: ConnectivityModel, k: int) -> float:
    """int_0^inf r^k H(r) dr = r0^(k+1) sum c Gamma(q) / (eta a^q), q = (k+1+p) / eta."""
    scale, eta = model.beta ** (-(k + 1) / model.eta), model.eta
    if not model.smooth:  # the hard disk: int_0^r0 r^k dr
        return scale / (k + 1)
    qs = ((c, (k + 1 + p) / eta, a) for c, p, a in _TERMS[model.family])
    return scale * sum(c * math.gamma(q) / (eta * a**q) for c, q, a in qs)


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
