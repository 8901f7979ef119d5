"""Closed-form boundary-component contributions to the connectivity probability.

Each boundary feature of a convex right prism (a ``BoundaryFeature``: the
bulk, the face, an edge or a corner) contributes one additive term to the
network outage probability in the dense regime.  A term has the form

    contribution(rho) = multiplicity * prefactor * rho^(1-l) * exp(-rho * rate)

where l is the feature codimension and, for every codimension,
rate = feature.solid_angle / (4 pi) * bulk_mass(model).  ``prefactor``
collects the geometrical factor and the feature measure.  The link model
enters only through the two full-space masses of ``channel``: the rate
through bulk_mass M, the prefactor through face_mass A, the slope of a
node's link mass with its depth below a face.  So one formula serves every
link model with a differentiable H; the hard disk has no boundary terms.

The full-connectivity probability is P_fc = 1 - sum of contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import InputError
from .channel import ConnectivityModel, bulk_mass, face_mass, mimo_mrc_2x2
from .geometry import BoundaryFeature, FeatureSet, build_house, check_size

# Guard below the theta = pi degeneracy, where a corner flattens into an
# edge and csc(theta) blows up.
THETA_EPS = 1e-6

# Typical length over the link range r0 below which the first-order
# expansion is flagged as unreliable.
VALIDITY_SCALE = 5.0


class ClosedFormUnavailableError(InputError):
    """Requested closed-form terms for a model or angle that has none."""


def _boundary_mass(model: ConnectivityModel) -> float:
    """face_mass(model), for a model whose boundary terms exist."""
    if not model.smooth:
        raise ClosedFormUnavailableError(
            f"no closed-form boundary terms for {model.family}: they need a differentiable H"
        )
    return face_mass(model)


def _corner_scale(theta: float, A: float) -> float:
    """The corner and cone prefactor over their shape function: 32 pi^2 / (theta A^3)."""
    return 32.0 * np.pi**2 / (theta * A**3)


def _model_overflow(model: ConnectivityModel) -> OverflowError:
    """The error for a model whose closed-form prefactor or rate is not a finite float."""
    return OverflowError(f"the closed-form terms overflow for the model {model.to_spec()}")


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

    Prefactors by codimension, with the feature measure V, S or L, theta the
    dihedral angle and A = face_mass(model): bulk V; face S / A; edge
    4 L / (A^2 sin theta); corner 32 pi^2 / (theta A^3) *
    corner_shape_function(theta) = 32 pi / (A^3 theta sin theta).
    """
    theta = feature.dihedral
    if feature.codim >= 2:
        _check_theta(theta)
    try:
        if feature.codim == 0:
            pref = feature.measure
        elif feature.codim == 1:
            pref = feature.measure / _boundary_mass(model)
        elif feature.codim == 2:
            pref = 4.0 * feature.measure / (_boundary_mass(model) ** 2 * math.sin(theta))
        else:
            pref = _corner_scale(theta, _boundary_mass(model)) * corner_shape_function(theta)
        rate = feature.solid_angle / (4.0 * np.pi) * bulk_mass(model)
    except (OverflowError, ZeroDivisionError):  # a power of A or of 1/beta leaves the floats
        raise _model_overflow(model) from None
    if not (math.isfinite(pref) and math.isfinite(rate)):
        raise _model_overflow(model)
    return ContributionTerm(feature.label, feature.codim, pref, rate, feature.multiplicity)


def terms(features: FeatureSet, model: ConnectivityModel) -> tuple[ContributionTerm, ...]:
    """The terms of a whole domain, one per feature: U, F, then E..., then C..."""
    return tuple(term(f, model) for f in features.all_features())


def cone_term(theta: float, model: ConnectivityModel) -> ContributionTerm:
    """Corner approximated by a cone of equal solid angle theta (steradians).

    Shares the corner exponent exactly; the prefactor differs because a cone
    is only a rough local stand-in for a three-plane corner.
    """
    if not 0.0 < theta < 2.0 * np.pi:
        raise ValueError("cone solid angle must lie in (0, 2 pi)")
    pref = _corner_scale(theta, _boundary_mass(model)) * cone_shape_function(theta)
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


# Dominance groups follow the four-band structure: bulk, face, all edges,
# all corners; a term's group is GROUP_ORDER[codim].
GROUP_ORDER = ("bulk", "face", "edge", "corner")


def _dominant_group(groups: np.ndarray) -> np.ndarray:
    """GROUP_ORDER index of the largest groups[codim, ...]; ties go to the higher codim."""
    return len(GROUP_ORDER) - 1 - np.argmax(groups[::-1], axis=0)


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
        """The GROUP_ORDER name of the largest codimension group, as ``phase_map`` picks it."""
        groups = np.zeros(len(GROUP_ORDER))
        for t, value in zip(self.terms, self.values):
            groups[t.codim] += value
        return GROUP_ORDER[_dominant_group(groups)]


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
    valid = p_out_raw <= 1.0 and char_length / model.r0 >= VALIDITY_SCALE
    return PfcBreakdown(domain_terms, values, float(rho), p_out_raw, valid)


def phase_map(beta: float, rho_grid, L_grid) -> list[tuple[float, float, str]]:
    """Dominant group (as ``PfcBreakdown.dominant``) of the house at each (rho, L)
    cell, row-major in L then rho, for the ``mimo_mrc_2x2(beta)`` link.  A house
    of side L has the unit house's angles and L^(3 - codim) times its measures,
    so the unit house's groups are scaled."""
    rho_grid = np.asarray(rho_grid, dtype=float)
    L_grid = np.asarray(L_grid, dtype=float)
    if rho_grid.size == 0 or L_grid.size == 0:
        raise ValueError("phase-map grids must be non-empty")
    if not all(
        np.all(np.isfinite(g)) and np.all(g > 0) and np.all(np.diff(g) > 0)
        for g in (rho_grid, L_grid)
    ):
        raise ValueError("phase-map grids must be finite, positive and strictly increasing")
    house = build_house(1.0)
    with np.errstate(over="ignore", under="ignore"):
        for L in (L_grid[0], L_grid[-1]):
            # The volume and area of the house of side L, as the map scales them.
            check_size(house.kind, house.volume * L**3, house.surface_area * L**2)
    unit = np.zeros((len(GROUP_ORDER), rho_grid.size))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite group raises below
        for t in terms(house.features(), mimo_mrc_2x2(beta)):
            unit[t.codim] += t.contribution(rho_grid)
        # groups[codim, i, j]: the group at (L_grid[i], rho_grid[j]).
        measure_power = 3 - np.arange(len(GROUP_ORDER))
        scale = L_grid[None, :] ** measure_power[:, None]
        groups = scale[:, :, None] * unit[:, None, :]
    finite = np.isfinite(groups).all(axis=0)
    if not finite.all():
        first_row = finite[~finite.all(axis=1)][0]
        raise _overflow(rho_grid[~first_row][0])
    winner = _dominant_group(groups)
    return list(
        zip(
            rho_grid.tolist() * L_grid.size,
            np.repeat(L_grid, rho_grid.size).tolist(),
            [GROUP_ORDER[w] for w in winner.ravel().tolist()],
        )
    )
