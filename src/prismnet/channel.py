"""Pair connectedness functions H(r) and their full-space connection masses.

Three link families are provided:

* ``mimo_mrc_2x2`` -- 2x2 MIMO with transmit beamforming and MRC reception
  over i.i.d. Rayleigh channels, path-loss exponent fixed at 2:
  H(r) = exp(-b r^2) (b^2 r^4 + 2 - exp(-b r^2)).
* ``rayleigh`` -- single-antenna Rayleigh outage link, H(r) = exp(-b r^eta).
* ``hard_disk`` -- on/off connection at range r0 (the eta -> infinity limit).

``beta`` absorbs transmit power, noise power, and rate threshold; the
effective communication range is r0 = beta^(-1/eta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import InputError

MIMO_MRC_2X2 = "mimo_mrc_2x2"
RAYLEIGH = "rayleigh"
HARD_DISK = "hard_disk"


class ModelError(InputError):
    """Invalid connectivity-model specification."""


@dataclass(frozen=True)
class ConnectivityModel:
    family: str
    beta: float
    eta: float

    def __post_init__(self):
        if self.family not in (MIMO_MRC_2X2, RAYLEIGH, HARD_DISK):
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
        return self.family != HARD_DISK


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


def h(model: ConnectivityModel, r) -> np.ndarray | float:
    """Direct-link probability at distance r (vectorized)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ModelError("distance must be non-negative")
    out = h_of_d2(model, r * r)
    return float(out) if out.ndim == 0 else out


def h_of_d2(model: ConnectivityModel, d2, out=None, scratch=None) -> np.ndarray:
    """Same as h() but from squared distance; the form the simulator uses.

    ``out`` receives H and ``scratch`` (MIMO only) holds an intermediate;
    both are float arrays of d2's shape that must not overlap it.  With
    them no array is allocated.  Without them the first steps allocate and
    scalar input keeps plain scalar arithmetic.  Either way each step is
    the same floating-point operation, so the values are bit-identical.
    """
    d2 = np.asarray(d2, dtype=float)
    if model.family == MIMO_MRC_2X2:
        x = model.beta * d2 if scratch is None else np.multiply(d2, model.beta, out=scratch)
        e = np.exp(-x) if out is None else np.exp(np.negative(x, out=out), out=out)
        # e * (x*x + 2 - e), built in x.
        x *= x
        x += 2.0
        x -= e
        e *= x
        return e
    if model.family == RAYLEIGH:
        # exp(-beta * d2**(eta/2)); `**=` picks the same power kernel as `**`.
        if out is None:
            y = d2 ** (0.5 * model.eta)
        else:
            y = out
            y[...] = d2
            y **= 0.5 * model.eta
        y *= -model.beta
        return np.exp(y) if out is None else np.exp(y, out=y)
    if out is None:
        return (d2 <= model.r0**2).astype(float)
    return np.less_equal(d2, model.r0**2, out=out)


def h_prime(model: ConnectivityModel, r) -> np.ndarray | float:
    """dH/dr, used by the quadrature oracle.  Smooth families only."""
    if not model.smooth:
        raise ModelError("hard-disk H has no derivative")
    r = np.asarray(r, dtype=float)
    b = model.beta
    if model.family == MIMO_MRC_2X2:
        x = b * r * r
        e = np.exp(-x)
        dh_dx = e * (2.0 * x - x * x - 2.0 + 2.0 * e)
        out = dh_dx * 2.0 * b * r
    else:
        out = -b * model.eta * r ** (model.eta - 1.0) * np.exp(-b * r**model.eta)
    return float(out) if out.ndim == 0 else out


def bulk_mass(model: ConnectivityModel) -> float:
    """Full-space connection mass M = 4 pi * int_0^inf r^2 H(r) dr."""
    b = model.beta
    if model.family == MIMO_MRC_2X2:
        return (23.0 - math.sqrt(2.0)) / 4.0 * (np.pi / b) ** 1.5
    if model.family == RAYLEIGH:
        # 4 pi / eta * Gamma(3/eta) * beta^(-3/eta); finite for all eta > 0.
        return 4.0 * np.pi / model.eta * math.gamma(3.0 / model.eta) * b ** (-3.0 / model.eta)
    return 4.0 / 3.0 * np.pi * model.r0**3


# The fields each family's spec may hold.
_MODEL_FIELDS = {
    MIMO_MRC_2X2: {"family", "beta", "eta"},
    RAYLEIGH: {"family", "beta", "eta"},
    HARD_DISK: {"family", "r0"},
}


def model_from_spec(spec: dict) -> ConnectivityModel:
    """Build a model from its specification, a dict of one of these forms::

        {"family": "mimo_mrc_2x2", "beta": 1.0}
        {"family": "rayleigh", "beta": 1.0, "eta": 2.0}
        {"family": "hard_disk", "r0": 1.0}
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise ModelError("model spec must be an object with a 'family' field")
    family = spec["family"]
    if not isinstance(family, str) or family not in _MODEL_FIELDS:
        raise ModelError(f"unknown model family {family!r}")
    extra = sorted(map(str, spec.keys() - _MODEL_FIELDS[family]))
    if extra:
        raise ModelError(f"{family} model spec has unknown field(s): {', '.join(extra)}")
    try:
        if family == HARD_DISK:
            return hard_disk(float(spec["r0"]))
        return ConnectivityModel(family, float(spec["beta"]), float(spec.get("eta", 2.0)))
    except ModelError:
        raise
    except KeyError as exc:
        raise ModelError(f"model spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelError(f"model spec field is not a number: {exc}") from exc
