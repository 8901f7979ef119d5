"""Numeric oracle for the first-order boundary-layer integrals.

Every closed-form boundary term rests on two steps: a first-order expansion
of the link mass integral near a boundary feature (the "inner" integral),
and an outer integral of exp(-rho * inner) over the feature's local
coordinate patch.  This module evaluates both steps by adaptive quadrature
so the closed forms can be validated independently: ``analytic`` writes
every smooth model's terms in two full-space masses, M and A, while this
module integrates H and H' with none of that algebra.  The inner rows
compare against ``analytic``'s own numbers, for any smooth link family:
the feature's exponent rate plus A times the probe's depths.

Every inner integral is one radial quadrature of H, H' or both (on shared
nodes) against polynomial weights: the angular and chord coordinates of
the wedge, face and bulk geometries are integrated by hand (they enter
only through sine/cosine and polynomial factors), and the radial
coordinate is integrated numerically with truncation at the radius where
H drops below ~1e-18.

Every integral goes through ``_quad``, an adaptive Gauss-Kronrod rule in
numpy on QUADPACK's 21-point nodes (qk21), with |K21 - G10| as a panel's
error.  It starts from 8 equal panels and evaluates the integrand once per
pass, on the nodes of every open panel at once; H and H' are the
simulator's own array functions.  It is done when the panels' errors sum
to at most max(1e-13, 1e-11 |I|).  An integral that needs more than 200
panels, or whose integrand is not finite, raises ``QuadratureError``,
which the CLI reports as exit 3.  The module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .channel import ConnectivityModel, ModelError, face_mass, h, h_prime, mimo_mrc_2x2
from .geometry import BoundaryFeature

# Beyond beta * r^eta = 50 the link probability is below 1e-18 for every
# family (the MIMO form carries a polynomial factor: e^-50 * (50^2 + 2) < 5e-19).
_EXP_CUTOFF = 50.0

# ``_quad``'s absolute and relative tolerances and its panel limit.
_EPSABS, _EPSREL, _LIMIT = 1e-13, 1e-11, 200


class QuadratureError(ArithmeticError):
    """Adaptive quadrature missed its tolerance within the panel limit, or
    its integrand was not finite."""


def r_max(model: ConnectivityModel) -> float:
    """Truncation radius: smallest r with beta * r^eta >= 50 (r0 for hard disk)."""
    if not model.smooth:
        return model.r0
    return (_EXP_CUTOFF / model.beta) ** (1.0 / model.eta)


# QUADPACK's qk21 rule on [-1, 1]: the Kronrod nodes x >= 0 (the rest
# mirror them), their K21 weights, and the G10 weights of the Gauss nodes
# among them, x[1], x[3], ..., x[9].
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980221119, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _GAUSS[19:10:-2] = _WG
_KRONROD = np.array(_WK[:-1] + _WK[::-1])
# One product with these columns gives a panel's K21 and K21 - G10.
_WEIGHTS = np.stack((_KRONROD, _KRONROD - _GAUSS), axis=1)
# A pass costs about the same on 1 panel or 8, and the radial integrands
# vary on the scale r0 = r_max / 7 (MIMO), so the first pass takes 8.
_FIRST_PANELS = 8


def _kronrod(func, mid, half):
    """K21 and |K21 - G10| of func on the panels [mid - half, mid + half].

    Shape (rows, panels, 2): ``func`` maps an array of nodes to their
    values, or to rows of values for several integrands on shared nodes.
    """
    f = np.asarray(func((mid[:, None] + half[:, None] * _NODES).ravel()), dtype=float)
    rule = f.reshape(-1, mid.size, 21) @ _WEIGHTS
    rule *= half[:, None]
    np.abs(rule[..., 1], out=rule[..., 1])
    return rule


def _quad(func, a: float, b: float):
    """int_a^b func by adaptive Gauss-Kronrod quadrature on every open panel at once.

    ``func`` maps an array of nodes to their values, or to k rows of values
    for k integrands on shared nodes, which give a list of k results.  Each
    pass evaluates it once on the 21 nodes of every open panel, and a
    panel's error is |K21 - G10|.  The integral is done when the accepted
    and open panels' errors sum to max(_EPSABS, _EPSREL |I|) or less, in
    every row.  Until then each panel whose error exceeds its length's share
    of that tolerance is bisected and the others are accepted.
    """
    edges = np.linspace(a, b, _FIRST_PANELS + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    done = 0.0  # the accepted panels' value and error sums, one pair per row
    accepted = 0
    while True:
        if accepted + mid.size > _LIMIT:
            raise QuadratureError(
                f"quadrature on [{a:.6g}, {b:.6g}] needs more than {_LIMIT} panels"
            )
        rule = _kronrod(func, mid, half)
        sums = (done + rule.sum(axis=1)).tolist()
        if not all(math.isfinite(v) and math.isfinite(e) for v, e in sums):
            raise QuadratureError(f"the integrand is not finite on [{a:.6g}, {b:.6g}]")
        tol = [max(_EPSABS, _EPSREL * abs(v)) for v, _ in sums]
        if all(e <= t for (_, e), t in zip(sums, tol)):
            values = [v for v, _ in sums]
            return values if len(values) > 1 else values[0]
        err = rule[..., 1]
        split = (err > np.array(tol)[:, None] * (half * (2.0 / (b - a)))).any(axis=0)
        if not split.any():
            split[err.max(axis=0).argmax()] = True
        keep = ~split
        done = done + keep @ rule
        accepted += int(np.count_nonzero(keep))
        mid, half = mid[split], 0.5 * half[split]
        mid = np.concatenate((mid - half, mid + half))
        half = np.concatenate((half, half))


def _radial(model: ConnectivityModel, weights, upper: float):
    """int_0^upper w H ds and int_0^upper w' H' ds on shared nodes, where
    (w, w') = weights(s); upper is capped at r_max."""

    def rows(s):
        w, w_prime = weights(s)
        return w * h(model, s), w_prime * h_prime(model, s)

    return _quad(rows, 0.0, min(upper, r_max(model)))


def _wedge_j_integrals(model: ConnectivityModel):
    """The three radial integrals of a corner's wedge expansion.

    J1 = iint r H(s),  J2 = iint (r z / s) H'(s),  J3 = iint (r^2 / s) H'(s)
    with s = sqrt(r^2 + z^2), over r in [0, inf) and z in [0, inf).  In
    polar coordinates r = s cos(phi), z = s sin(phi) the angle integrates
    to 1, 1/2 and pi/4, leaving the two radial moments int s^2 H and
    int s^2 H', integrated on shared nodes.  ``_edge_j`` turns them into an
    edge's.
    """
    m0, m1 = _radial(model, lambda s: (s * s,) * 2, math.inf)
    return m0, 0.5 * m1, 0.25 * np.pi * m1


def _edge_j(J):
    """An edge's J from a corner's: z over (-inf, inf) doubles J1 and J3
    and kills J2 by symmetry."""
    J1, _, J3 = J
    return 2.0 * J1, 0.0, 2.0 * J3


def _wedge_mass(theta: float, J, r2: float, theta2: float, z2: float = 0.0) -> float:
    """First-order wedge link mass from a corner's J, or an edge's (whose
    J2 = 0 drops the z2 term), at the probe (r2, theta2, z2)."""
    J1, J2, J3 = J
    ang = math.sin(theta2) + math.sin(theta - theta2)
    return theta * J1 - theta * z2 * J2 - r2 * ang * J3


def _face_masses(R: float, model: ConnectivityModel) -> tuple[float, float]:
    """Link mass over the ball of radius R from a probe on its surface, and
    its slope d(inner mass)/d(r2) at r2 = R, from one radial quadrature.

    The mass is the spherical-coordinate integral of r1^2 sin(theta) H(dist)
    with phi pre-integrated and the polar angle substituted by the chord
    length u; for fixed u the radius r1 runs over [|R - u|, R], and
    int r1 dr1 over it is u (2R - u) / 2, leaving
    (pi / R) int_0^2R u^2 (2R - u) H(u) du.  The slope's first-order
    integrand has weight r1 (R^2 - r1^2 + u^2) H'(u); over the same r1 it
    integrates to u^2 (4R^2 - u^2) / 4.  Written this way the weight has no
    cancellation, even at R = 1e6.
    """

    def weights(u):
        u2 = u * u
        return u2 * (2.0 * R - u), u2 * (4.0 * R * R - u2)

    zeroth, slope = _radial(model, weights, 2.0 * R)
    return np.pi / R * zeroth, np.pi / (4.0 * R * R) * slope


def inner_face(R: float, model: ConnectivityModel, r2: float) -> float:
    """First-order link mass near the surface of the equal-area sphere.

    Note the numeric value carries a genuine curvature deficit of relative
    size ~0.8 / (sqrt(beta) R) against the flat-face closed form; take R
    large to compare against it.
    """
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    if not 0.0 <= r2 <= R:
        raise ValueError("probe radius must lie in [0, R]")
    zeroth, slope = _face_masses(R, model)
    return zeroth + (r2 - R) * slope


def inner_bulk(model: ConnectivityModel) -> float:
    """The bulk link mass: the full-space connection mass 4 pi int s^2 H(s) ds.

    The bulk expansion has no first-order term: its angular factor
    cos(theta) sin(theta) integrates to zero over [0, pi].
    """
    return 4.0 * np.pi * _quad(lambda s: s * s * h(model, s), 0.0, r_max(model))


def outer_integral(feature: BoundaryFeature, model: ConnectivityModel, rho: float) -> float:
    """Outer integral of exp(-rho * inner mass) over one feature patch.

    This is the oracle for ``analytic.term(feature, model).outer_integral``:
    no closed-form algebra enters, only the numeric inner coefficients.  A
    face is integrated over the sphere of its area, so it matches the flat
    closed form only as that sphere grows.  The result is the per-feature
    outer integral (multiply by rho and the multiplicity for the outage
    contribution).
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("density must be positive and finite")
    if feature.codim and not model.smooth:
        raise ModelError("boundary outer integrals need a differentiable H")
    if feature.codim == 0:
        return feature.measure * math.exp(-rho * inner_bulk(model))
    if feature.codim == 1:
        R = math.sqrt(feature.measure / (4.0 * np.pi))
        A, slope = _face_masses(R, model)
        B = -slope  # inner = A + B (R - r2)
        # The integrand lives in a layer of width ~1/(rho B) below r2 = R;
        # integrate the depth t = R - r2 over that layer only.
        depth = min(R, _EXP_CUTOFF / (rho * B))
        return _quad(
            lambda t: 4.0 * np.pi * (R - t) ** 2 * np.exp(-rho * (A + B * t)), 0.0, depth
        )
    if feature.codim not in (2, 3):
        raise ValueError(f"unsupported codimension {feature.codim}")
    theta = feature.dihedral
    J = _wedge_j_integrals(model)
    J1, J2, J3 = J if feature.codim == 3 else _edge_j(J)
    A = theta * J1
    ang_int = _quad(
        lambda t2: (rho * (-J3) * (np.sin(t2) + np.sin(theta - t2))) ** -2, 0.0, theta
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


def _rate(feature: BoundaryFeature, model: ConnectivityModel) -> float:
    return analytic.term(feature, model).exponent_rate


def _closed_wedge(
    model: ConnectivityModel, codim: int, theta: float, r2: float, theta2: float, z2: float = 0.0
) -> float:
    """``analytic``'s first-order link mass at the probe (r2, theta2, z2) of a
    corner (codim 3) or an edge (codim 2), written apart from ``_wedge_mass``.

    The feature's exponent rate plus A = face_mass(model) times the probe's
    depths: A r2 (sin theta2 + sin(theta - theta2)) / 4 + theta z2 A / 2 pi
    at a corner.  An edge's z runs over the whole line, so its r2 term is
    twice a corner's and it has no z2 term.
    """
    ang = math.sin(theta2) + math.sin(theta - theta2)
    depth = r2 * ang / 2.0 if codim == 2 else r2 * ang / 4.0 + theta * z2 / (2.0 * np.pi)
    rate = _rate(BoundaryFeature(codim=codim, measure=1.0, dihedral=theta), model)
    return rate + face_mass(model) * depth


def _closed_face(model: ConnectivityModel, R: float, r2: float) -> float:
    """``analytic``'s link mass at depth R - r2 below a flat face: M/2 + A (R - r2)."""
    return _rate(BoundaryFeature(codim=1, measure=1.0), model) + face_mass(model) * (R - r2)


def _inner_rows(model: ConnectivityModel) -> list[ValidationRow]:
    """Quadrature vs ``analytic``'s first-order masses for one smooth model.

    Three corner rows, three edge rows at theta in {pi/3, pi/2, 3pi/4}, one
    face row and one bulk row.  A wedge probe lies d = 0.05 r0 from the
    edge, a corner's also d above the apex; the face probe lies d below a
    sphere 1e6 / sqrt(beta) in radius, so large that its curvature deficit
    is far below the tolerance.  One J triple serves the corner, edge and
    bulk rows.
    """
    beta, d = model.beta, 0.05 * model.r0
    corner_j = _wedge_j_integrals(model)
    rows = []
    wedges = (("inner_corner", 3, corner_j, {"z2": d}), ("inner_edge", 2, _edge_j(corner_j), {}))
    for kind, codim, J, height in wedges:
        for theta in (np.pi / 3, np.pi / 2, 3 * np.pi / 4):
            probe = {"r2": d, "theta2": 0.3 * theta, **height}
            rows.append(
                ValidationRow(
                    kind,
                    {"beta": beta, "theta": theta, **probe},
                    _closed_wedge(model, codim, theta, **probe),
                    _wedge_mass(theta, J, **probe),
                    1e-4,
                )
            )
    R = 1e6 / math.sqrt(beta)
    rows.append(
        ValidationRow(
            "inner_face",
            {"beta": beta, "R": R, "r2": R - d},
            _closed_face(model, R, R - d),
            inner_face(R, model, R - d),
            1e-4,
        )
    )
    bulk = 4.0 * np.pi * corner_j[0]  # inner_bulk(model): J1 is its moment int s^2 H
    rate = _rate(BoundaryFeature(codim=0, measure=1.0), model)
    rows.append(ValidationRow("inner_bulk", {"beta": beta}, rate, bulk, 1e-8))
    return rows


def validation_suite() -> list[ValidationRow]:
    """Closed form vs quadrature for every inner and outer integral kind.

    The inner rows (``_inner_rows``) run at beta in {0.5, 1, 2}; outer
    comparisons run at beta = 1 and rho = 1 against the analytic terms.
    Every closed form is ``analytic``'s, for the 2x2 MIMO MRC link.
    """
    rows = [row for beta in (0.5, 1.0, 2.0) for row in _inner_rows(mimo_mrc_2x2(beta))]

    # Outer integrals at beta = 1: the closed-form term against quadrature
    # over the same feature.  The face is compared on a sphere large enough
    # that the curvature deficit of the spherical patch is far below the
    # tolerance.
    beta, theta, rho, Rface, V = 1.0, np.pi / 2, 1.0, 1e5, 156.25  # V: house(5) volume
    model = mimo_mrc_2x2(beta)
    outer = [
        ("outer_corner", {"beta": beta, "theta": theta, "rho": rho},
         BoundaryFeature(codim=3, measure=1.0, dihedral=theta), 1e-3),
        ("outer_edge", {"beta": beta, "theta": theta, "L": 5.0, "rho": rho},
         BoundaryFeature(codim=2, measure=5.0, dihedral=theta), 1e-2),
        ("outer_face", {"beta": beta, "R": Rface, "rho": rho},
         BoundaryFeature(codim=1, measure=4.0 * np.pi * Rface**2), 1e-3),
        ("outer_bulk", {"beta": beta, "V": V, "rho": rho},
         BoundaryFeature(codim=0, measure=V), 1e-6),
    ]
    for kind, params, feature, tol in outer:
        closed = analytic.term(feature, model).outer_integral(rho)
        rows.append(ValidationRow(kind, params, closed, outer_integral(feature, model, rho), tol))
    return rows
