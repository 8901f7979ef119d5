"""Numeric oracle for the first-order boundary-layer integrals.

Every closed-form boundary term rests on two steps: a first-order expansion
of the link mass integral near a boundary feature (the "inner" integral),
and an outer integral of exp(-rho * inner) over the feature's local
coordinate patch.  This module evaluates both steps by adaptive quadrature
so the closed forms can be validated independently, and so models without
registered closed forms can still be evaluated.

Every inner integral is one radial quadrature of H or H' against a
polynomial weight: the angular and chord coordinates of the wedge, face and
bulk geometries are integrated by hand (they enter only through sine/cosine
and polynomial factors), and the radial coordinate is integrated
numerically with truncation at the radius where H drops below ~1e-18.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import analytic
from .channel import ConnectivityModel, ModelError, bulk_mass, h, h_prime, mimo_mrc_2x2
from .geometry import BoundaryFeature

# Beyond beta * r^eta = 50 the link probability is below 1e-18 for every
# family (the MIMO form carries a polynomial factor: e^-50 * (50^2 + 2) < 5e-19).
_EXP_CUTOFF = 50.0

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-11, limit=200)


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def r_max(model: ConnectivityModel) -> float:
    """Truncation radius: smallest r with beta * r^eta >= 50 (r0 for hard disk)."""
    if not model.smooth:
        return model.r0
    return (_EXP_CUTOFF / model.beta) ** (1.0 / model.eta)


def _quad(func, a, b):
    val, err = integrate.quad(func, a, b, **_QUAD_OPTS)
    budget = max(_QUAD_OPTS["epsabs"], abs(val) * _QUAD_OPTS["epsrel"]) * 100.0
    if err > budget and err > 1e-10:
        raise QuadratureError(f"quadrature error {err:.2e} exceeds budget for value {val:.6e}")
    return val


def _radial(model: ConnectivityModel, weight, upper: float = math.inf, slope: bool = False):
    """int_0^upper weight(s) H(s) ds, or H'(s) with ``slope``; upper is capped at r_max."""
    f = h_prime if slope else h
    return _quad(lambda s: weight(s) * f(model, s), 0.0, min(upper, r_max(model)))


def _square(s):
    return s * s


def _wedge_j_integrals(model: ConnectivityModel, half_z: bool = True):
    """The three radial integrals of the wedge expansion.

    J1 = iint r H(s),  J2 = iint (r z / s) H'(s),  J3 = iint (r^2 / s) H'(s)
    with s = sqrt(r^2 + z^2), over r in [0, inf) and z in [0, inf)
    (``half_z``, corners) or z in (-inf, inf) (edges, which doubles J1 and
    J3 and kills J2 by symmetry).  In polar coordinates r = s cos(phi),
    z = s sin(phi) the angle integrates to 1, 1/2 and pi/4, leaving the two
    radial moments int s^2 H and int s^2 H'.  A model without H' (hard disk)
    gets J2 = J3 = 0, which serves only the probe at the apex.
    """
    m0 = _radial(model, _square)
    m1 = _radial(model, _square, slope=True) if model.smooth else 0.0
    J1, J2, J3 = m0, 0.5 * m1, 0.25 * np.pi * m1
    if not half_z:
        return 2.0 * J1, 0.0, 2.0 * J3
    return J1, J2, J3


def inner_corner(
    theta: float,
    model: ConnectivityModel,
    r2: float = 0.0,
    theta2: float = 0.0,
    z2: float = 0.0,
) -> float:
    """First-order link mass near a wedge corner, by numeric quadrature.

    The wedge occupies r in [0, inf), theta1 in [0, theta), z in [0, inf)
    in cylindrical coordinates; (r2, theta2, z2) is the probe node.
    """
    if not 0.0 < theta < np.pi:
        raise ValueError("corner angle must lie in (0, pi)")
    if not 0.0 <= theta2 <= theta or r2 < 0 or z2 < 0:
        raise ValueError("probe point outside the wedge patch")
    if not model.smooth and (r2 or z2):
        raise ModelError("first-order terms need a differentiable H")
    J1, J2, J3 = _wedge_j_integrals(model, half_z=True)
    ang = math.sin(theta2) + math.sin(theta - theta2)
    return theta * J1 - theta * z2 * J2 - r2 * ang * J3


def inner_corner_closed_form(
    theta: float, beta: float, r2: float = 0.0, theta2: float = 0.0, z2: float = 0.0
) -> float:
    """Closed-form wedge link mass for the 2x2 MIMO MRC family (eta = 2)."""
    return (
        14.0 * z2 * theta
        + 0.5 * (23.0 - math.sqrt(2.0)) * math.sqrt(np.pi / beta) * theta
        + 7.0 * np.pi * r2 * (math.sin(theta2) - math.sin(theta2 - theta))
    ) / (8.0 * beta)


def inner_edge(
    theta: float, model: ConnectivityModel, r2: float = 0.0, theta2: float = 0.0
) -> float:
    """First-order link mass near an edge interior (z-range doubled, no z2 term)."""
    if not 0.0 < theta < np.pi:
        raise ValueError("edge angle must lie in (0, pi)")
    if not model.smooth and r2:
        raise ModelError("first-order terms need a differentiable H")
    J1, _, J3 = _wedge_j_integrals(model, half_z=False)
    ang = math.sin(theta2) + math.sin(theta - theta2)
    return theta * J1 - r2 * ang * J3


def inner_edge_closed_form(theta: float, beta: float, r2: float = 0.0, theta2: float = 0.0) -> float:
    return (
        0.5 * (23.0 - math.sqrt(2.0)) * math.sqrt(np.pi / beta) * theta
        + 7.0 * np.pi * r2 * (math.sin(theta2) - math.sin(theta2 - theta))
    ) / (4.0 * beta)


def _face_zeroth(R: float, model: ConnectivityModel) -> float:
    """Link mass over the ball of radius R from a probe on its surface.

    Spherical-coordinate integral of r1^2 sin(theta) H(dist) with phi
    pre-integrated and the polar angle substituted by the chord length u;
    for fixed u the radius r1 runs over [|R - u|, R], and int r1 dr1 over
    it is u (2R - u) / 2, leaving (pi / R) int_0^2R u^2 (2R - u) H(u) du.
    """
    return np.pi / R * _radial(model, lambda u: u * u * (2.0 * R - u), 2.0 * R)


def _face_slope(R: float, model: ConnectivityModel) -> float:
    """d(inner mass)/d(r2) at r2 = R, from the first-order integrand.

    The chord form has weight r1 (R^2 - r1^2 + u^2) H'(u); over r1 in
    [|R - u|, R] it integrates to u^2 (4R^2 - u^2) / 4.  Written this way
    the weight has no cancellation, even at R = 1e6.
    """
    return np.pi / (4.0 * R * R) * _radial(
        model, lambda u: u * u * (4.0 * R * R - u * u), 2.0 * R, slope=True
    )


def inner_face(R: float, model: ConnectivityModel, r2: float | None = None) -> float:
    """First-order link mass near the surface of the equal-area sphere.

    Note the numeric value carries a genuine curvature deficit of relative
    size ~0.8 / (sqrt(beta) R) against the flat-face closed form; take R
    large to compare against it.
    """
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    if r2 is None:
        r2 = R
    if not 0.0 <= r2 <= R:
        raise ValueError("probe radius must lie in [0, R]")
    if not model.smooth and r2 != R:
        raise ModelError("first-order terms need a differentiable H")
    zeroth = _face_zeroth(R, model)
    if r2 == R:
        return zeroth
    return zeroth + (r2 - R) * _face_slope(R, model)


def inner_face_closed_form(R: float, beta: float, r2: float | None = None) -> float:
    if r2 is None:
        r2 = R
    return (
        np.pi
        / (4.0 * beta)
        * (0.5 * (23.0 - math.sqrt(2.0)) * math.sqrt(np.pi / beta) + 14.0 * (R - r2))
    )


def inner_bulk(model: ConnectivityModel) -> float:
    """The bulk link mass: the full-space connection mass 4 pi int s^2 H(s) ds.

    The bulk expansion has no first-order term: its angular factor
    cos(theta) sin(theta) integrates to zero over [0, pi].
    """
    return 4.0 * np.pi * _radial(model, _square)


def outer_integral(feature: BoundaryFeature, model: ConnectivityModel, rho: float) -> float:
    """Outer integral of exp(-rho * inner mass) over one feature patch.

    This is the generic-model route to a boundary term: no closed-form
    algebra enters, only the numeric inner coefficients.  The result is the
    per-feature outer integral (multiply by rho and the multiplicity for
    the outage contribution).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("density must be positive and finite")
    if feature.codim and not model.smooth:
        raise ModelError("boundary outer integrals need a differentiable H")
    if feature.codim == 0:
        return feature.measure * math.exp(-rho * inner_bulk(model))
    if feature.codim == 1:
        R = math.sqrt(feature.measure / (4.0 * np.pi))
        A = _face_zeroth(R, model)
        B = -_face_slope(R, model)  # inner = A + B (R - r2)
        # The integrand lives in a layer of width ~1/(rho B) below r2 = R;
        # integrate the depth t = R - r2 over that layer only.
        depth = min(R, _EXP_CUTOFF / (rho * B))
        return _quad(
            lambda t: 4.0 * np.pi * (R - t) ** 2 * math.exp(-rho * (A + B * t)), 0.0, depth
        )
    if feature.codim not in (2, 3):
        raise ValueError(f"unsupported codimension {feature.codim}")
    theta = feature.dihedral
    J1, J2, J3 = _wedge_j_integrals(model, half_z=feature.codim == 3)
    A = theta * J1
    ang_int = _quad(
        lambda t2: (rho * (-J3) * (math.sin(t2) + math.sin(theta - t2))) ** -2, 0.0, theta
    )
    if feature.codim == 2:
        return feature.measure * math.exp(-rho * A) * ang_int
    return math.exp(-rho * A) / (rho * (-theta * J2)) * ang_int


@dataclass(frozen=True)
class ValidationRow:
    kind: str
    params: dict
    closed_form: float
    quadrature: float
    rel_tol: float

    @property
    def rel_error(self) -> float:
        return abs(self.quadrature - self.closed_form) / abs(self.closed_form)

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.rel_tol


def validation_suite() -> list[ValidationRow]:
    """Closed form vs quadrature for every inner and outer integral kind.

    Inner comparisons run across the (beta, theta) grid beta in {0.5, 1, 2},
    theta in {pi/3, pi/2, 3pi/4}; outer comparisons run at beta = 1 and
    rho = 1 against the analytic terms.
    """
    rows: list[ValidationRow] = []
    thetas = (np.pi / 3, np.pi / 2, 3 * np.pi / 4)
    for beta in (0.5, 1.0, 2.0):
        model = mimo_mrc_2x2(beta)
        r2 = 0.05 * model.r0
        z2 = 0.05 * model.r0
        for theta in thetas:
            t2 = 0.3 * theta
            rows.append(
                ValidationRow(
                    "inner_corner",
                    {"beta": beta, "theta": theta, "r2": r2, "theta2": t2, "z2": z2},
                    inner_corner_closed_form(theta, beta, r2, t2, z2),
                    inner_corner(theta, model, r2, t2, z2),
                    1e-4,
                )
            )
        for theta in thetas:
            t2 = 0.3 * theta
            rows.append(
                ValidationRow(
                    "inner_edge",
                    {"beta": beta, "theta": theta, "r2": r2, "theta2": t2},
                    inner_edge_closed_form(theta, beta, r2, t2),
                    inner_edge(theta, model, r2, t2),
                    1e-4,
                )
            )
        Rbig = 1e6 / math.sqrt(beta)
        rows.append(
            ValidationRow(
                "inner_face",
                {"beta": beta, "R": Rbig, "r2": Rbig - 0.05 * model.r0},
                inner_face_closed_form(Rbig, beta, Rbig - 0.05 * model.r0),
                inner_face(Rbig, model, Rbig - 0.05 * model.r0),
                1e-4,
            )
        )
        rows.append(
            ValidationRow("inner_bulk", {"beta": beta}, bulk_mass(model), inner_bulk(model), 1e-8)
        )

    # Outer integrals at beta = 1: the closed-form term against quadrature
    # over the same feature.  The face is compared on a sphere large enough
    # that the curvature deficit of the spherical patch is far below the
    # tolerance.
    beta, theta, rho, Rface, V = 1.0, np.pi / 2, 1.0, 1e5, 156.25  # V: house(5) volume
    model = mimo_mrc_2x2(beta)
    outer = [
        ("outer_corner", {"beta": beta, "theta": theta, "rho": rho},
         BoundaryFeature(codim=3, measure=1.0, solid_angle=theta, dihedral=theta), 1e-3),
        ("outer_edge", {"beta": beta, "theta": theta, "L": 5.0, "rho": rho},
         BoundaryFeature(codim=2, measure=5.0, solid_angle=2 * theta, dihedral=theta), 1e-2),
        ("outer_face", {"beta": beta, "R": Rface, "rho": rho},
         BoundaryFeature(codim=1, measure=4.0 * np.pi * Rface**2, solid_angle=2 * np.pi), 1e-3),
        ("outer_bulk", {"beta": beta, "V": V, "rho": rho},
         BoundaryFeature(codim=0, measure=V, solid_angle=4 * np.pi), 1e-6),
    ]
    for kind, params, feature, tol in outer:
        closed = analytic.term(feature, model).outer_integral(rho)
        rows.append(ValidationRow(kind, params, closed, outer_integral(feature, model, rho), tol))
    return rows
