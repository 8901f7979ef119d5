"""Quadrature oracle vs closed forms, plus the generic outer-integral route."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet import analytic
from prismnet.channel import (
    ModelError,
    bulk_mass,
    h,
    h_prime,
    hard_disk,
    mimo_mrc_2x2,
    rayleigh,
)
from prismnet.geometry import BoundaryFeature
from prismnet.quadrature import (
    QuadratureError,
    _face_slope,
    _face_zeroth,
    _wedge_j_integrals,
    inner_bulk,
    inner_corner,
    inner_corner_closed_form,
    inner_edge,
    inner_edge_closed_form,
    inner_face,
    inner_face_closed_form,
    outer_integral,
    r_max,
    validation_suite,
)

BETAS = (0.5, 1.0, 2.0)
THETAS = (np.pi / 3, np.pi / 2, 3 * np.pi / 4)


class TestInnerIntegrals:
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_corner(self, beta, theta):
        m = mimo_mrc_2x2(beta)
        r2, t2, z2 = 0.07 * m.r0, 0.4 * theta, 0.11 * m.r0
        assert_allclose(
            inner_corner(theta, m, r2, t2, z2),
            inner_corner_closed_form(theta, beta, r2, t2, z2),
            rtol=1e-4,
        )

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_edge(self, beta, theta):
        m = mimo_mrc_2x2(beta)
        r2, t2 = 0.07 * m.r0, 0.4 * theta
        assert_allclose(
            inner_edge(theta, m, r2, t2), inner_edge_closed_form(theta, beta, r2, t2), rtol=1e-4
        )

    @pytest.mark.parametrize("beta", BETAS)
    def test_face_flat_limit(self, beta):
        m = mimo_mrc_2x2(beta)
        R = 1e6 / math.sqrt(beta)
        r2 = R - 0.08 * m.r0
        assert_allclose(inner_face(R, m, r2), inner_face_closed_form(R, beta, r2), rtol=1e-4)

    def test_face_curvature_deficit(self):
        # At finite R the spherical region holds strictly less link mass than
        # the flat half-space; the relative deficit is ~0.81/(sqrt(beta) R).
        m = mimo_mrc_2x2(1.0)
        R = 10.0
        num = inner_face(R, m)
        closed = inner_face_closed_form(R, 1.0)
        deficit = (closed - num) / closed
        assert 0.05 < deficit < 0.12
        assert_allclose(deficit, 0.81 / R, rtol=0.15)

    @pytest.mark.parametrize("beta", BETAS)
    def test_bulk(self, beta):
        m = mimo_mrc_2x2(beta)
        assert_allclose(inner_bulk(m), bulk_mass(m), rtol=1e-8)

    def test_rayleigh_supported(self):
        m = rayleigh(1.0, 2.0)
        assert_allclose(inner_bulk(m), np.pi**1.5, rtol=1e-8)

    def test_corner_probe_validation(self):
        m = mimo_mrc_2x2(1.0)
        with pytest.raises(ValueError):
            inner_corner(np.pi / 2, m, theta2=3.0)
        with pytest.raises(ValueError):
            inner_corner(-0.1, m)
        with pytest.raises(ValueError):
            inner_face(-1.0, m)

    @pytest.mark.parametrize("theta", THETAS)
    def test_hard_disk_at_apex(self, theta):
        # The wedge holds theta / (4 pi) of the ball of radius r0 (z >= 0) at a
        # corner, and twice that at an edge.
        r0 = 1.3
        m = hard_disk(r0)
        assert_allclose(inner_corner(theta, m), theta * r0**3 / 3.0, rtol=1e-12)
        assert_allclose(inner_edge(theta, m), 2.0 * theta * r0**3 / 3.0, rtol=1e-12)

    def test_hard_disk_off_apex_needs_slope(self):
        m = hard_disk(1.0)
        with pytest.raises(ModelError):
            inner_corner(np.pi / 2, m, r2=0.1)
        with pytest.raises(ModelError):
            inner_corner(np.pi / 2, m, z2=0.1)
        with pytest.raises(ModelError):
            inner_edge(np.pi / 2, m, r2=0.1)


class TestOuterIntegrals:
    def test_corner(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=3, measure=1.0, solid_angle=np.pi / 2, dihedral=np.pi / 2)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-3,
        )

    def test_edge(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=2, measure=5.0, solid_angle=np.pi, dihedral=np.pi / 2)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-2,
        )

    def test_bulk(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=0, measure=156.25, solid_angle=4 * np.pi)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-6,
        )

    def test_face_large_sphere(self):
        m = mimo_mrc_2x2(1.0)
        R = 1e5
        S = 4 * np.pi * R * R
        f = BoundaryFeature(codim=1, measure=S, solid_angle=2 * np.pi)
        assert_allclose(
            outer_integral(f, m, 1.0), analytic.term(f, m).outer_integral(1.0), rtol=1e-3
        )

    def test_hard_disk_bulk(self):
        m = hard_disk(1.0)
        f = BoundaryFeature(codim=0, measure=10.0, solid_angle=4 * np.pi)
        expected = 10.0 * math.exp(-4.0 / 3.0 * np.pi)
        assert_allclose(outer_integral(f, m, 1.0), expected, rtol=1e-8)

    @pytest.mark.parametrize(
        "feature",
        [
            BoundaryFeature(codim=1, measure=100.0, solid_angle=2 * np.pi),
            BoundaryFeature(codim=2, measure=5.0, solid_angle=np.pi, dihedral=np.pi / 2),
            BoundaryFeature(codim=3, measure=1.0, solid_angle=np.pi / 2, dihedral=np.pi / 2),
        ],
        ids=["face", "edge", "corner"],
    )
    def test_hard_disk_boundary_rejected(self, feature):
        with pytest.raises(ModelError):
            outer_integral(feature, hard_disk(1.0), 1.0)

    def test_rejects_bad_density(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=0, measure=1.0, solid_angle=4 * np.pi)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                outer_integral(f, m, rho)


class TestTruncation:
    @pytest.mark.parametrize("beta", BETAS)
    def test_r_max_negligible_tail(self, beta):
        m = mimo_mrc_2x2(beta)
        assert h(m, r_max(m)) < 1e-17

    def test_hard_disk_r_max(self):
        assert r_max(hard_disk(2.0)) == pytest.approx(2.0)


class TestValidationSuite:
    def test_all_rows_pass(self):
        rows = validation_suite()
        assert len(rows) >= 20
        kinds = {r.kind for r in rows}
        assert {
            "inner_corner",
            "inner_edge",
            "inner_face",
            "inner_bulk",
            "outer_corner",
            "outer_edge",
            "outer_face",
            "outer_bulk",
        } <= kinds
        failing = [r for r in rows if not r.passed]
        assert failing == []


# Reference forms for the radial reductions: the wedge J-integrals as 2-D
# Cartesian integrals over the (r, z) quarter plane, and the face integrals
# as nested quadratures over the sphere radius r1 and the chord length u.
_REF_OPTS = dict(epsabs=1e-13, epsrel=1e-12)


def _cartesian_j_integrals(model):
    rm = r_max(model)

    def j1(z, r):
        return r * h(model, math.hypot(r, z))

    def j2(z, r):
        s = math.hypot(r, z)
        return 0.0 if s == 0.0 else r * z / s * h_prime(model, s)

    def j3(z, r):
        s = math.hypot(r, z)
        return 0.0 if s == 0.0 else r * r / s * h_prime(model, s)

    return tuple(integrate.dblquad(f, 0.0, rm, 0.0, rm, **_REF_OPTS)[0] for f in (j1, j2, j3))


def _nested_face(R, model, slope):
    """_face_slope (``slope``) or _face_zeroth as an r1 integral of chord-length integrals."""
    rm = r_max(model)

    def chord(r1):
        a, b = R - r1, min(R + r1, rm)
        if a >= b:
            return 0.0
        gap = (R - r1) * (R + r1)  # R^2 - r1^2 without cancellation

        def f(u):
            return (gap + u * u) * h_prime(model, u) if slope else u * h(model, u)

        return r1 * integrate.quad(f, a, b, limit=200, **_REF_OPTS)[0]

    outer = integrate.quad(chord, max(0.0, R - rm), R, limit=300, **_REF_OPTS)[0]
    return np.pi / R**2 * outer if slope else 2.0 * np.pi / R * outer


MODELS = pytest.mark.parametrize(
    "model", [mimo_mrc_2x2(1.0), rayleigh(1.0, 3.0)], ids=["mimo", "rayleigh"]
)


class TestRadialReduction:
    @MODELS
    def test_wedge_matches_cartesian(self, model):
        J1, J2, J3 = _wedge_j_integrals(model, half_z=True)
        assert_allclose((J1, J2, J3), _cartesian_j_integrals(model), rtol=1e-9)
        assert _wedge_j_integrals(model, half_z=False) == (2.0 * J1, 0.0, 2.0 * J3)

    @pytest.mark.parametrize("R", [0.5, 3.0, 10.0])
    @MODELS
    def test_face_matches_nested(self, model, R):
        assert_allclose(_face_zeroth(R, model), _nested_face(R, model, slope=False), rtol=1e-9)
        assert_allclose(_face_slope(R, model), _nested_face(R, model, slope=True), rtol=1e-9)

    @pytest.mark.parametrize("R", [0.5, 3.0, 10.0])
    def test_hard_disk_face_matches_nested(self, R):
        m = hard_disk(1.0)
        assert_allclose(_face_zeroth(R, m), _nested_face(R, m, slope=False), rtol=1e-9)
