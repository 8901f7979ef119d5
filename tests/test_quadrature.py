"""Quadrature oracle vs closed forms, plus the generic outer-integral route."""

import math

import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet import analytic, quadrature
from prismnet.channel import (
    ModelError,
    bulk_mass,
    h,
    h_prime,
    hard_disk,
    mimo_mrc_2x2,
    rayleigh,
)
from prismnet.cli import main
from prismnet.geometry import BoundaryFeature, build_house
from prismnet.quadrature import (
    QuadratureError,
    _closed_face,
    _closed_wedge,
    _edge_j,
    _face_masses,
    _inner_rows,
    _kronrod,
    _quad,
    _wedge_j_integrals,
    _wedge_mass,
    inner_bulk,
    inner_face,
    outer_integral,
    r_max,
    validation_suite,
)

BETAS = (0.5, 1.0, 2.0)
THETAS = (np.pi / 3, np.pi / 2, 3 * np.pi / 4)


def counted(func):
    """func, recording the nodes of each call in ``.calls``."""

    def wrapper(x):
        wrapper.calls.append(x.size)
        return func(x)

    wrapper.calls = []
    return wrapper


class TestIntegrator:
    @pytest.mark.parametrize("degree", range(31))
    def test_kronrod_exact_on_one_panel(self, degree):
        # K21 integrates x^d exactly up to d = 31; G10 up to d = 19, so the
        # error column is rounding there and not above.
        a, b = 0.25, 1.75
        (value, err), = _kronrod(lambda x: x**degree, np.array([1.0]), np.array([0.75]))[0]
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert_allclose(value, exact, rtol=1e-14)
        if degree < 20:
            assert err <= 1e-14 * exact
        else:
            assert err > 1e-13 * exact

    def test_polynomial_in_one_pass(self):
        rng = np.random.default_rng(5)
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 31))
        f = counted(poly)
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        assert_allclose(_quad(f, -1.0, 2.0), exact, rtol=1e-13)
        assert len(f.calls) == 1

    def test_narrow_gaussian_subdivides(self):
        mu, sigma = 0.3, 1e-3
        f = counted(lambda x: np.exp(-0.5 * ((x - mu) / sigma) ** 2))
        z = sigma * math.sqrt(2.0)
        exact = sigma * math.sqrt(0.5 * np.pi) * (math.erf((1.0 - mu) / z) + math.erf(mu / z))
        assert_allclose(_quad(f, 0.0, 1.0), exact, rtol=1e-11)
        # Of the 8 first panels only [0.25, 0.375], which holds mu, is split.
        assert f.calls[:2] == [8 * 21, 2 * 21]

    def test_stacked_rows_equal_separate_integrals(self):
        gauss = lambda x: np.exp(-0.5 * ((x - 0.3) / 1e-2) ** 2)  # noqa: E731
        smooth = lambda x: x * np.exp(-x)  # noqa: E731
        both = _quad(lambda x: (gauss(x), smooth(x)), 0.0, 1.0)
        assert_allclose(both, [_quad(gauss, 0.0, 1.0), _quad(smooth, 0.0, 1.0)], rtol=1e-14)
        m = mimo_mrc_2x2(1.0)
        J1, J2, _ = _wedge_j_integrals(m)
        separate = [
            c * _quad(lambda s: s * s * f(m, s), 0.0, r_max(m))
            for c, f in ((1.0, h), (0.5, h_prime))
        ]
        assert_allclose((J1, J2), separate, rtol=1e-14)

    def test_divergent_integrand_raises_within_limit(self):
        f = counted(lambda x: 1.0 / x)
        with pytest.raises(QuadratureError, match="needs more than 200 panels"):
            _quad(f, 0.0, 1.0)
        # A pass evaluates only open panels, and each split replaces one.
        assert sum(f.calls) <= 21 * 2 * quadrature._LIMIT

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="not finite"):
            _quad(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)

    def test_validate_exits_3_past_the_limit(self, monkeypatch, tmp_path):
        monkeypatch.setattr(quadrature, "_LIMIT", 1)
        res = CliRunner().invoke(main, ["validate", "--out", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        [line] = res.output.strip().splitlines()
        assert line.startswith("Error: quadrature on [") and line.endswith("needs more than 1 panels")
        assert not (tmp_path / "out").exists()


class TestInnerIntegrals:
    # The wedge rows of validation_suite at other probes: the first-order
    # mass from the quadrature J triple against analytic's rate and face mass.
    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_corner(self, beta, theta):
        m = mimo_mrc_2x2(beta)
        r2, t2, z2 = 0.07 * m.r0, 0.4 * theta, 0.11 * m.r0
        assert_allclose(
            _wedge_mass(theta, _wedge_j_integrals(m), r2, t2, z2),
            _closed_wedge(m, 3, theta, r2, t2, z2),
            rtol=1e-4,
        )

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("theta", THETAS)
    def test_edge(self, beta, theta):
        m = mimo_mrc_2x2(beta)
        r2, t2 = 0.07 * m.r0, 0.4 * theta
        assert_allclose(
            _wedge_mass(theta, _edge_j(_wedge_j_integrals(m)), r2, t2),
            _closed_wedge(m, 2, theta, r2, t2),
            rtol=1e-4,
        )

    @pytest.mark.parametrize("beta", BETAS)
    def test_face_flat_limit(self, beta):
        m = mimo_mrc_2x2(beta)
        R = 1e6 / math.sqrt(beta)
        r2 = R - 0.08 * m.r0
        assert_allclose(inner_face(R, m, r2), _closed_face(m, R, r2), rtol=1e-4)

    def test_face_curvature_deficit(self):
        # At finite R the spherical region holds strictly less link mass than
        # the flat half-space; the relative deficit is ~0.81/(sqrt(beta) R).
        m = mimo_mrc_2x2(1.0)
        R = 10.0
        num = inner_face(R, m, R)
        closed = _closed_face(m, R, R)
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

    def test_face_probe_validation(self):
        m = mimo_mrc_2x2(1.0)
        with pytest.raises(ValueError):
            inner_face(-1.0, m, -1.0)
        for r2 in (-0.1, 10.1):
            with pytest.raises(ValueError):
                inner_face(10.0, m, r2)

    def test_hard_disk_face_needs_slope(self):
        # The first-order face mass integrates H' at every probe, the
        # surface included.
        for r2 in (10.0, 9.9):
            with pytest.raises(ModelError):
                inner_face(10.0, hard_disk(1.0), r2)

    @pytest.mark.parametrize(
        "model",
        [rayleigh(1.0, 2.0), rayleigh(0.7, 3.0), mimo_mrc_2x2(1.3)],
        ids=["rayleigh-2", "rayleigh-3", "mimo-1.3"],
    )
    def test_rows_for_any_smooth_family(self, model):
        # validation_suite's inner rows for models off its grid, at its tolerances.
        rows = _inner_rows(model)
        assert [r.kind for r in rows] == ["inner_corner"] * 3 + ["inner_edge"] * 3 + [
            "inner_face",
            "inner_bulk",
        ]
        failing = [(r.kind, r.params, r.rel_error) for r in rows if not r.passed]
        assert failing == []

    def test_hard_disk_has_no_wedge_j(self):
        # J2 and J3 integrate H', which a hard disk does not have.
        with pytest.raises(ModelError):
            _wedge_j_integrals(hard_disk(1.0))


class TestOuterIntegrals:
    def test_corner(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=3, measure=1.0, dihedral=np.pi / 2)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-3,
        )

    def test_edge(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=2, measure=5.0, dihedral=np.pi / 2)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-2,
        )

    def test_bulk(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=0, measure=156.25)
        assert_allclose(
            outer_integral(f, m, 1.0),
            analytic.term(f, m).outer_integral(1.0),
            rtol=1e-6,
        )

    def test_face_large_sphere(self):
        m = mimo_mrc_2x2(1.0)
        R = 1e5
        S = 4 * np.pi * R * R
        f = BoundaryFeature(codim=1, measure=S)
        assert_allclose(
            outer_integral(f, m, 1.0), analytic.term(f, m).outer_integral(1.0), rtol=1e-3
        )

    @pytest.mark.parametrize("eta", [2.0, 3.0])
    @pytest.mark.parametrize("rho", [1.0, 4.0])
    def test_rayleigh_terms(self, eta, rho):
        # analytic.term writes every boundary term in bulk_mass and
        # face_mass; the oracle integrates H and H' on its own.
        m = rayleigh(1.0, eta)
        for f in build_house(5.0).features().all_features():
            if f.codim != 1:
                assert_allclose(
                    analytic.term(f, m).outer_integral(rho), outer_integral(f, m, rho),
                    rtol=1e-12,
                )
        R = 1e5
        f = BoundaryFeature(codim=1, measure=4 * np.pi * R * R)
        assert_allclose(
            analytic.term(f, m).outer_integral(rho), outer_integral(f, m, rho), rtol=1e-3
        )

    def test_hard_disk_bulk(self):
        m = hard_disk(1.0)
        f = BoundaryFeature(codim=0, measure=10.0)
        expected = 10.0 * math.exp(-4.0 / 3.0 * np.pi)
        assert_allclose(outer_integral(f, m, 1.0), expected, rtol=1e-8)

    @pytest.mark.parametrize(
        "feature",
        [
            BoundaryFeature(codim=1, measure=100.0),
            BoundaryFeature(codim=2, measure=5.0, dihedral=np.pi / 2),
            BoundaryFeature(codim=3, measure=1.0, dihedral=np.pi / 2),
        ],
        ids=["face", "edge", "corner"],
    )
    def test_hard_disk_boundary_rejected(self, feature):
        with pytest.raises(ModelError):
            outer_integral(feature, hard_disk(1.0), 1.0)

    def test_rejects_bad_density(self):
        m = mimo_mrc_2x2(1.0)
        f = BoundaryFeature(codim=0, measure=1.0)
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

    def test_wedge_integrals_once_per_beta(self, monkeypatch):
        # One J triple per beta serves its corner, edge and bulk rows; the
        # outer corner and edge rows integrate their own.
        calls = []
        wedge = quadrature._wedge_j_integrals

        def counted(model):
            calls.append(model)
            return wedge(model)

        monkeypatch.setattr(quadrature, "_wedge_j_integrals", counted)
        rows = validation_suite()
        assert len(calls) <= len(BETAS) + 2
        inner = [r for r in rows if r.kind in ("inner_corner", "inner_edge")]
        assert len(inner) == 2 * len(BETAS) * len(THETAS)
        for r in inner:
            p = dict(r.params)
            J = wedge(mimo_mrc_2x2(p.pop("beta")))
            J = J if r.kind == "inner_corner" else _edge_j(J)
            assert r.quadrature == _wedge_mass(J=J, **p), (r.kind, r.params)
        bulk = [r for r in rows if r.kind == "inner_bulk"]
        assert [r.params["beta"] for r in bulk] == list(BETAS)
        for r in bulk:
            assert r.quadrature == inner_bulk(mimo_mrc_2x2(r.params["beta"])), r.params


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
    """_face_masses' slope (``slope``) or mass as an r1 integral of chord-length integrals."""
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
        J1, J2, J3 = _wedge_j_integrals(model)
        assert_allclose((J1, J2, J3), _cartesian_j_integrals(model), rtol=1e-9)
        assert _edge_j((J1, J2, J3)) == (2.0 * J1, 0.0, 2.0 * J3)

    @pytest.mark.parametrize("R", [0.5, 3.0, 10.0])
    @MODELS
    def test_face_matches_nested(self, model, R):
        nested = [_nested_face(R, model, slope) for slope in (False, True)]
        assert_allclose(_face_masses(R, model), nested, rtol=1e-9)
