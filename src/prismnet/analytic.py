"""Closed-form boundary-component contributions to the connectivity probability.

Each boundary feature of a convex right prism (a ``BoundaryFeature``: the
bulk, the face, an edge or a corner) contributes one additive term to the
network outage probability in the dense regime.  A term has the form

    contribution(rho) = multiplicity * prefactor * rho^(1-l) * exp(-rho * rate)

where l is the feature codimension and, for every codimension,
rate = feature.solid_angle / (4 pi) * bulk_mass(model).  ``prefactor``
collects the geometrical factor and the feature measure.  Closed-form
prefactors exist only for the 2x2 MIMO MRC family with path-loss exponent
2; the generic numeric route for other models lives in the quadrature
module.

The full-connectivity probability is P_fc = 1 - sum of contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import InputError
from .channel import MIMO_MRC_2X2, ConnectivityModel, bulk_mass, mimo_mrc_2x2
from .geometry import BoundaryFeature, FeatureSet, build_house

# Guard below the theta = pi degeneracy, where a corner flattens into an
# edge and csc(theta) blows up.
THETA_EPS = 1e-6

# sqrt(beta) * typical-length threshold below which the first-order
# expansion is flagged as unreliable.
VALIDITY_SCALE = 5.0


class ClosedFormUnavailableError(InputError):
    """Requested closed-form terms for a model family or angle that has none."""


def _require_mimo(model: ConnectivityModel):
    # ConnectivityModel fixes eta = 2 for this family.
    if model.family != MIMO_MRC_2X2:
        raise ClosedFormUnavailableError(
            f"closed-form boundary terms exist only for {MIMO_MRC_2X2} with eta=2; "
            f"got {model.family} (use the quadrature pipeline instead)"
        )


def _check_theta(theta: float):
    if not 0.0 < theta <= np.pi - THETA_EPS:
        raise ClosedFormUnavailableError(
            f"dihedral angle {theta} outside (0, pi - {THETA_EPS}]: "
            "the closed form diverges as the angle flattens"
        )


@dataclass(frozen=True)
class ContributionTerm:
    """One additive outage term for a group of identical boundary features."""

    label: str
    codim: int
    prefactor: float
    exponent_rate: float
    multiplicity: int = 1

    def outer_integral(self, rho) -> np.ndarray | float:
        """Per-feature outer integral, before the global rho multiplier."""
        rho = np.asarray(rho, dtype=float)
        out = self.prefactor * rho ** (-self.codim) * np.exp(-rho * self.exponent_rate)
        return float(out) if out.ndim == 0 else out

    def contribution(self, rho) -> np.ndarray | float:
        """Outage contribution of the whole group: mult * rho * outer integral."""
        return self.multiplicity * np.asarray(rho, dtype=float) * self.outer_integral(rho)


def term(feature: BoundaryFeature, model: ConnectivityModel) -> ContributionTerm:
    """Closed-form outage term of one boundary feature group, under the feature's label.

    Prefactors by codimension, with the feature measure V, S or L: bulk V;
    face 2 beta S / (7 pi); edge 16 L beta^2 / (49 pi^2 sin theta); corner
    256 beta^3 / (343 pi^2 theta sin theta), with theta the dihedral angle.
    """
    _require_mimo(model)
    beta, theta = model.beta, feature.dihedral
    if feature.codim >= 2:
        _check_theta(theta)
    if feature.codim == 0:
        pref = feature.measure
    elif feature.codim == 1:
        pref = 2.0 * beta * feature.measure / (7.0 * np.pi)
    elif feature.codim == 2:
        pref = 16.0 * feature.measure * beta**2 / (49.0 * np.pi**2 * math.sin(theta))
    else:
        pref = 256.0 * beta**3 / (343.0 * np.pi**2 * theta * math.sin(theta))
    rate = feature.solid_angle / (4.0 * np.pi) * bulk_mass(model)
    return ContributionTerm(feature.label, feature.codim, pref, rate, feature.multiplicity)


def terms(features: FeatureSet, model: ConnectivityModel) -> tuple[ContributionTerm, ...]:
    """The terms of a whole domain, one per feature: U, F, then E..., then C..."""
    return tuple(term(f, model) for f in features.all_features())


def cone_term(theta: float, model: ConnectivityModel) -> ContributionTerm:
    """Corner approximated by a cone of equal solid angle theta (steradians).

    Shares the corner exponent exactly; the prefactor differs because a cone
    is only a rough local stand-in for a three-plane corner.
    """
    _require_mimo(model)
    if not 0.0 < theta < 2.0 * np.pi:
        raise ValueError("cone solid angle must lie in (0, 2 pi)")
    d = theta * theta - 6.0 * np.pi * theta + 8.0 * np.pi**2
    pref = 1024.0 * model.beta**3 * np.pi**4 / (343.0 * theta**2 * d * d)
    return ContributionTerm("K", 3, pref, theta / (4.0 * np.pi) * bulk_mass(model))


def corner_shape_function(theta) -> np.ndarray | float:
    """Corner prefactor with common factors removed: csc(theta) / pi."""
    theta = np.asarray(theta, dtype=float)
    out = 1.0 / (np.pi * np.sin(theta))
    return float(out) if out.ndim == 0 else out


def cone_shape_function(theta) -> np.ndarray | float:
    """Cone prefactor under the same normalization as corner_shape_function.

    Chosen so that cone and corner term prefactor ratios equal the ratio of
    the two shape functions: 4 pi^5 / (theta * (theta^2 - 6 pi theta + 8 pi^2)^2).
    """
    theta = np.asarray(theta, dtype=float)
    d = theta * theta - 6.0 * np.pi * theta + 8.0 * np.pi**2
    out = 4.0 * np.pi**5 / (theta * d * d)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PfcBreakdown:
    """Assembled outage probability with its per-feature-group terms.

    ``values`` holds each term's contribution at ``rho``, in ``terms`` order.
    """

    terms: tuple[ContributionTerm, ...]
    values: tuple[float, ...]
    rho: float
    p_out_raw: float
    valid: bool

    @property
    def p_fc(self) -> float:
        return min(1.0, max(0.0, 1.0 - self.p_out_raw))

    @property
    def clamped(self) -> bool:
        return self.p_out_raw > 1.0

    def group_values(self) -> dict[str, float]:
        """Outage contribution summed per label (U, F, E1, ..., C1, ...)."""
        out: dict[str, float] = {}
        for t, value in zip(self.terms, self.values):
            out[t.label] = out.get(t.label, 0.0) + value
        return out

    @property
    def dominant(self) -> str:
        """Label of the largest term group; ties go to higher codimension."""
        codim = {t.label: t.codim for t in self.terms}
        vals = self.group_values()
        return max(vals, key=lambda k: (vals[k], codim[k]))


def _overflow(rho: float) -> OverflowError:
    """The error for a density whose outage is not finite, as where rho^(1-l) overflows."""
    return OverflowError(f"the closed-form outage overflows at density {rho:g}")


def assemble_pfc(features: FeatureSet, model: ConnectivityModel, rho: float) -> PfcBreakdown:
    """Sum the labelled terms of a domain (see ``terms``) at density rho."""
    domain_terms = terms(features, model)
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("density must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total raises below
        values = tuple(t.contribution(rho) for t in domain_terms)
        p_out_raw = float(sum(values))
    if not math.isfinite(p_out_raw):
        raise _overflow(rho)
    char_length = features.bulk.measure ** (1.0 / 3.0)
    valid = p_out_raw <= 1.0 and math.sqrt(model.beta) * char_length >= VALIDITY_SCALE
    return PfcBreakdown(domain_terms, values, float(rho), p_out_raw, valid)


# Dominance groups follow the four-band structure: bulk, face, all edges,
# all corners.
_GROUP_OF_CODIM = {0: "bulk", 1: "face", 2: "edge", 3: "corner"}
GROUP_ORDER = ("bulk", "face", "edge", "corner")


def component_group_values(breakdown: PfcBreakdown) -> dict[str, float]:
    out = {g: 0.0 for g in GROUP_ORDER}
    for t, value in zip(breakdown.terms, breakdown.values):
        out[_GROUP_OF_CODIM[t.codim]] += value
    return out


def phase_map(beta: float, rho_grid, L_grid) -> list[tuple[float, float, str]]:
    """Dominant-component label for every (rho, L) cell, row-major in L then rho."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    L_grid = np.asarray(L_grid, dtype=float)
    if rho_grid.size == 0 or L_grid.size == 0:
        raise ValueError("phase-map grids must be non-empty")
    if not all(
        np.all(np.isfinite(g)) and np.all(g > 0) and np.all(np.diff(g) > 0)
        for g in (rho_grid, L_grid)
    ):
        raise ValueError("phase-map grids must be finite, positive and strictly increasing")
    model = mimo_mrc_2x2(beta)
    out = []
    for L in L_grid:
        feats = build_house(float(L)).features()
        # Group terms once per L; evaluate the whole rho row vectorized.
        rows = {g: np.zeros_like(rho_grid) for g in GROUP_ORDER}
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite group raises below
            for t in terms(feats, model):
                rows[_GROUP_OF_CODIM[t.codim]] += t.contribution(rho_grid)
        stacked = np.vstack([rows[g] for g in GROUP_ORDER])
        finite = np.isfinite(stacked).all(axis=0)
        if not finite.all():
            raise _overflow(rho_grid[~finite][0])
        # argmax over reversed order so that equal values pick higher codim.
        winner = len(GROUP_ORDER) - 1 - np.argmax(stacked[::-1], axis=0)
        for rho, w in zip(rho_grid, winner):
            out.append((float(rho), float(L), GROUP_ORDER[int(w)]))
    return out
