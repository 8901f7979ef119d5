"""Closed-form boundary terms: values, structure, dominance, phase map."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet import analytic
from prismnet.analytic import (
    ClosedFormUnavailableError,
    GROUP_ORDER,
    assemble_pfc,
    bulk_term,
    component_group_values,
    cone_shape_function,
    cone_term,
    corner_shape_function,
    corner_term,
    dominant_component,
    edge_term,
    face_term,
    phase_map,
)
from prismnet.channel import bulk_mass, h, mimo_mrc_2x2, rayleigh
from prismnet.geometry import build_house

SQRT2 = math.sqrt(2.0)


class TestTerms:
    def test_corner_right_angle(self):
        t = corner_term(np.pi / 2, 1.0)
        assert t.codim == 3
        assert t.density_power == -2
        assert_allclose(t.prefactor, 512.0 / (343.0 * np.pi**3), rtol=1e-14)
        assert_allclose(t.outer_integral(1.0), 1.125e-3, rtol=1e-3)

    def test_edge_prefactor(self):
        t = edge_term(np.pi / 2, 1.0, 1.0)
        assert_allclose(t.prefactor, 16.0 / (49.0 * np.pi**2), rtol=1e-14)
        assert_allclose(t.prefactor, 0.03308447, atol=1e-7)

    def test_face_bulk(self):
        beta = 1.3
        m = mimo_mrc_2x2(beta)
        f = face_term(10.0, beta)
        assert_allclose(f.prefactor, 2.0 * beta * 10.0 / (7.0 * np.pi), rtol=1e-14)
        assert_allclose(f.exponent_rate, 0.5 * bulk_mass(m), rtol=1e-14)
        u = bulk_term(4.0, beta)
        assert u.prefactor == 4.0
        assert_allclose(u.exponent_rate, bulk_mass(m), rtol=1e-14)

    def test_density_powers(self):
        beta = 1.0
        terms = {
            0: bulk_term(1.0, beta),
            1: face_term(1.0, beta),
            2: edge_term(np.pi / 2, 1.0, beta),
            3: corner_term(np.pi / 2, beta),
        }
        for codim, t in terms.items():
            # rho * outer scales as rho^(1 - codim)
            lo, hi = t.contribution(1.0) * math.exp(t.exponent_rate), None
            hi = t.contribution(2.0) * math.exp(2.0 * t.exponent_rate)
            assert_allclose(hi / lo, 2.0 ** (1 - codim), rtol=1e-12)

    def test_invalid_angles(self):
        with pytest.raises(ValueError):
            corner_term(0.0, 1.0)
        with pytest.raises(ValueError):
            corner_term(np.pi, 1.0)
        with pytest.raises(ValueError):
            edge_term(np.pi / 2, -1.0, 1.0)
        with pytest.raises(ValueError):
            face_term(0.0, 1.0)


class TestAssembly:
    def test_house_labels(self):
        b = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 1.0)
        assert set(t.label for t in b.terms) == {"U", "F", "E1", "E2", "C1", "C2"}

    def test_house_value_frozen(self):
        b = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 1.0)
        assert_allclose(b.p_out_raw, 8.479978781835385e-3, rtol=1e-12)
        groups = b.group_values()
        assert_allclose(groups["C1"], 6.751543707973297e-3, rtol=1e-12)
        assert_allclose(groups["C2"], 6.48781366925445e-4, rtol=1e-12)
        assert b.dominant == "C1"

    def test_single_angle_class_collapses(self):
        from prismnet.geometry import Polygon2D, build_right_prism

        cube = build_right_prism(Polygon2D([[0, 0], [5, 0], [5, 5], [0, 5]]), 5.0)
        b = assemble_pfc(cube.features(), mimo_mrc_2x2(1.0), 1.0)
        assert set(t.label for t in b.terms) == {"U", "F", "E", "C"}

    def test_clamping_at_low_density(self):
        b = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 0.25)
        assert b.p_out_raw > 1.0
        assert b.clamped
        assert b.p_fc == 0.0
        assert not b.valid

    def test_validity_flag_scale(self):
        # sqrt(beta) * V^(1/3) below threshold -> flagged invalid.
        b = assemble_pfc(build_house(1.0).features(), mimo_mrc_2x2(1.0), 50.0)
        assert not b.valid
        b5 = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 2.0)
        assert b5.valid

    def test_high_density_limit(self):
        b = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 50.0)
        assert b.p_fc == pytest.approx(1.0, abs=1e-12)

    def test_non_mimo_rejected(self):
        with pytest.raises(ClosedFormUnavailableError):
            assemble_pfc(build_house(5.0).features(), rayleigh(1.0), 1.0)

    @pytest.mark.parametrize("rho", [0.0, math.nan, math.inf])
    def test_bad_density_rejected(self, rho):
        with pytest.raises(ValueError):
            assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), rho)


class TestCone:
    def test_shared_exponent(self):
        for theta in (np.pi / 4, np.pi / 2, 2.0):
            assert corner_term(theta, 1.3).exponent_rate == cone_term(theta, 1.3).exponent_rate

    def test_prefactor_ratio_equals_shape_ratio(self):
        for theta in np.linspace(np.pi / 4, 3 * np.pi / 4, 7):
            lhs = corner_term(theta, 1.0).prefactor / cone_term(theta, 1.0).prefactor
            rhs = corner_shape_function(theta) / cone_shape_function(theta)
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_corner_diverges_cone_bounded(self):
        near_pi = np.pi - 1e-9
        assert corner_shape_function(near_pi) > 1e6
        assert cone_shape_function(near_pi) < 10.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_prefactor_is_leading_order_cone_integral(self, beta):
        # Independent of analytic's algebra: near the apex of a cone of
        # half-angle alpha, M(x) ~ M(0) + G x.axis with
        # G = |grad M(0)| = 2 pi sin^2(alpha) m1 (divergence theorem over the
        # lateral surface), m1 = int_0^inf s H(s) ds.  The prefactor is then
        # int over cone directions psi of int_0^inf r^2 exp(-G r cos psi) dr.
        model = mimo_mrc_2x2(beta)
        m1, _ = integrate.quad(lambda s: s * h(model, s), 0.0, np.inf, epsabs=0, epsrel=1e-13)
        for omega in (np.pi / 4, np.pi / 2, 3 * np.pi / 4):
            alpha = math.acos(1.0 - omega / (2.0 * np.pi))
            G = 2.0 * np.pi * math.sin(alpha) ** 2 * m1
            # int_0^inf r^2 exp(-a r) dr = 2 / a^3
            pref, _ = integrate.quad(
                lambda psi: 2.0 * np.pi * math.sin(psi) * 2.0 / (G * math.cos(psi)) ** 3,
                0.0, alpha, epsabs=0, epsrel=1e-13,
            )
            assert_allclose(cone_term(omega, beta).prefactor, pref, rtol=1e-9)


class TestDominance:
    def test_phase_map_spot_checks(self):
        rhos = [0.5, 1.0, 2.0]
        lengths = [2.0, 5.0, 20.0]
        cells = phase_map(1.0, rhos, lengths)
        for rho, L, label in cells:
            assert label == dominant_component(L, 1.0, rho)

    def test_band_order_along_density_ray(self):
        # Dominant labels along increasing rho form a subsequence of
        # (bulk, face, edge, corner), over the region where the expansion
        # yields a probability (unclamped total).
        for L in (2.0, 5.0, 10.0, 40.0):
            feats = build_house(L).features()
            ranks = []
            for rho in np.linspace(0.05, 3.0, 90):
                b = assemble_pfc(feats, mimo_mrc_2x2(1.0), rho)
                if not b.clamped:
                    ranks.append(GROUP_ORDER.index(dominant_component(L, 1.0, rho)))
            assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_bulk_dominates_large_L_low_density(self):
        assert dominant_component(300.0, 1.0, 0.05) == "bulk"

    def test_corner_dominates_high_density(self):
        assert dominant_component(5.0, 1.0, 2.0) == "corner"

    def test_group_values_sum(self):
        b = assemble_pfc(build_house(5.0).features(), mimo_mrc_2x2(1.0), 1.0)
        vals = component_group_values(b)
        assert_allclose(sum(vals.values()), b.p_out_raw, rtol=1e-12)

    def test_phase_map_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            phase_map(1.0, [1.0, 0.5], [1.0])
        with pytest.raises(ValueError):
            phase_map(1.0, [], [1.0])
        with pytest.raises(ValueError):
            phase_map(1.0, [np.nan], [1.0])
        with pytest.raises(ValueError):
            phase_map(1.0, [1.0], [np.inf])
