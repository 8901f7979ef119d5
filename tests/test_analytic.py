"""Closed-form boundary terms: values, structure, dominance, phase map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from prismnet import analytic
from prismnet.analytic import (
    ClosedFormUnavailableError,
    GROUP_ORDER,
    assemble_pfc,
    component_group_values,
    cone_shape_function,
    cone_term,
    corner_shape_function,
    phase_map,
    term,
    terms,
)
from prismnet.channel import bulk_mass, h, mimo_mrc_2x2, rayleigh
from prismnet.geometry import BoundaryFeature, Polygon2D, build_house, build_right_prism

SQRT2 = math.sqrt(2.0)


def corner(theta):
    return BoundaryFeature(codim=3, measure=1.0, solid_angle=theta, dihedral=theta)


def edge(theta, L):
    return BoundaryFeature(codim=2, measure=L, solid_angle=2.0 * theta, dihedral=theta)


def face(S):
    return BoundaryFeature(codim=1, measure=S, solid_angle=2.0 * np.pi)


def bulk(V):
    return BoundaryFeature(codim=0, measure=V, solid_angle=4.0 * np.pi)


def rotated_square_prism(degrees):
    """Square base of circumradius 5 turned by ``degrees``, height 3."""
    a = math.radians(degrees)
    base = [[5 * math.cos(a + k * np.pi / 2), 5 * math.sin(a + k * np.pi / 2)] for k in range(4)]
    return build_right_prism(Polygon2D(base), 3.0)


class TestTerms:
    def test_corner_right_angle(self):
        t = term(corner(np.pi / 2), mimo_mrc_2x2(1.0))
        assert t.codim == 3
        assert_allclose(t.prefactor, 512.0 / (343.0 * np.pi**3), rtol=1e-14)
        assert_allclose(t.outer_integral(1.0), 1.125e-3, rtol=1e-3)

    def test_edge_prefactor(self):
        t = term(edge(np.pi / 2, 1.0), mimo_mrc_2x2(1.0))
        assert_allclose(t.prefactor, 16.0 / (49.0 * np.pi**2), rtol=1e-14)
        assert_allclose(t.prefactor, 0.03308447, atol=1e-7)

    def test_face_bulk(self):
        beta = 1.3
        m = mimo_mrc_2x2(beta)
        f = term(face(10.0), m)
        assert_allclose(f.prefactor, 2.0 * beta * 10.0 / (7.0 * np.pi), rtol=1e-14)
        assert_allclose(f.exponent_rate, 0.5 * bulk_mass(m), rtol=1e-14)
        u = term(bulk(4.0), m)
        assert u.prefactor == 4.0
        assert_allclose(u.exponent_rate, bulk_mass(m), rtol=1e-14)

    def test_density_powers(self):
        m = mimo_mrc_2x2(1.0)
        terms = {
            0: term(bulk(1.0), m),
            1: term(face(1.0), m),
            2: term(edge(np.pi / 2, 1.0), m),
            3: term(corner(np.pi / 2), m),
        }
        for codim, t in terms.items():
            # rho * outer scales as rho^(1 - codim)
            lo, hi = t.contribution(1.0) * math.exp(t.exponent_rate), None
            hi = t.contribution(2.0) * math.exp(2.0 * t.exponent_rate)
            assert_allclose(hi / lo, 2.0 ** (1 - codim), rtol=1e-12)

    def test_invalid_angles(self):
        m = mimo_mrc_2x2(1.0)
        with pytest.raises(ValueError):
            term(corner(0.0), m)
        with pytest.raises(ValueError):
            term(corner(np.pi), m)
        with pytest.raises(ValueError):
            term(edge(np.pi / 2, -1.0), m)
        with pytest.raises(ValueError):
            term(face(0.0), m)
        # A valid feature whose angle is too close to pi for the closed form.
        with pytest.raises(ClosedFormUnavailableError):
            term(corner(np.pi - 1e-9), m)
        with pytest.raises(ClosedFormUnavailableError):
            term(edge(np.pi - 1e-9, 1.0), m)

    @pytest.mark.parametrize(
        "degrees, total", [(0, "0x1.4fc1672c27917p-7"), (10, "0x1.4fc1672c27917p-7"),
                           (30, "0x1.4fc1672c27914p-7")]
    )
    def test_right_angle_class_gets_one_label(self, degrees, total):
        # The vertex angles lie within an ulp of the cap edges' 0.5 pi, and at
        # 0 and 10 degrees the first is not 0.5 pi itself: one class, one label.
        feats = rotated_square_prism(degrees).features()
        assert [e.dihedral for e in feats.edges] == [0.5 * np.pi, 0.5 * np.pi]
        b = assemble_pfc(feats, mimo_mrc_2x2(1.0), 1.0)
        assert [t.label for t in b.terms] == ["U", "F", "E", "E", "C"]
        # The total is the one the unmerged angles gave, bit for bit.
        assert b.p_out_raw == float.fromhex(total)


def assert_numbered_by_angle(labelled, prefix):
    """(label, feature) pairs: one label per dihedral angle, numbered by increasing angle."""
    angle_of = {}
    for label, f in labelled:
        assert angle_of.setdefault(label, f.dihedral) == f.dihedral
    if len(angle_of) == 1:
        assert list(angle_of) == [prefix]
        return
    names = [f"{prefix}{i + 1}" for i in range(len(angle_of))]
    assert set(angle_of) == set(names)
    angles = [angle_of[name] for name in names]
    assert all(a < b for a, b in zip(angles, angles[1:]))


@settings(max_examples=60, deadline=None, database=None)
@given(
    gaps=st.lists(st.floats(1.0, 10.0), min_size=3, max_size=12),
    axes=st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)),
    height=st.floats(0.1, 10.0),
    beta=st.floats(0.25, 4.0),
)
def test_terms_follow_features(gaps, axes, height, beta):
    # Strictly convex base: points on an ellipse at increasing angles whose
    # gaps (the last one wraps around) are at least 1/111 of the turn.
    turns = np.cumsum(gaps) / np.sum(gaps)
    base = [[axes[0] * math.cos(2 * np.pi * t), axes[1] * math.sin(2 * np.pi * t)] for t in turns]
    feats = build_right_prism(Polygon2D(base), height).features()
    model = mimo_mrc_2x2(beta)
    ts = terms(feats, model)
    features = feats.all_features()
    assert len(ts) == len(features)
    assert [t.label for t in ts] == [f.label for f in features]
    for t, f in zip(ts, features):
        assert (t.codim, t.multiplicity) == (f.codim, f.multiplicity)
        assert t.exponent_rate == f.solid_angle / (4.0 * np.pi) * bulk_mass(model)
    assert sum(t.multiplicity for t in ts) == 2 + feats.edge_count + feats.corner_count
    assert [t.label for t in ts[:2]] == ["U", "F"]
    for prefix, codim in (("E", 2), ("C", 3)):
        assert_numbered_by_angle(
            [(t.label, f) for t, f in zip(ts, features) if f.codim == codim], prefix
        )


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
        m = mimo_mrc_2x2(1.3)
        for theta in (np.pi / 4, np.pi / 2, 2.0):
            assert term(corner(theta), m).exponent_rate == cone_term(theta, m).exponent_rate

    def test_prefactor_ratio_equals_shape_ratio(self):
        m = mimo_mrc_2x2(1.0)
        for theta in np.linspace(np.pi / 4, 3 * np.pi / 4, 7):
            lhs = term(corner(theta), m).prefactor / cone_term(theta, m).prefactor
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
            assert_allclose(cone_term(omega, model).prefactor, pref, rtol=1e-9)


class TestDominance:
    def test_phase_map_spot_checks(self):
        # Reference: the largest group value, ties toward higher codimension
        # (later in GROUP_ORDER), from the scalar breakdown of each cell.
        rhos = [0.5, 1.0, 2.0]
        lengths = [2.0, 5.0, 20.0]
        cells = phase_map(1.0, rhos, lengths)
        assert [(rho, L) for rho, L, _ in cells] == [(r, L) for L in lengths for r in rhos]
        labels = set()
        for rho, L, label in cells:
            vals = component_group_values(
                assemble_pfc(build_house(L).features(), mimo_mrc_2x2(1.0), rho)
            )
            want = max(reversed(GROUP_ORDER), key=vals.__getitem__)
            assert label == want == phase_map(1.0, [rho], [L])[0][2]
            labels.add(label)
        assert len(labels) > 1

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
                    ranks.append(GROUP_ORDER.index(phase_map(1.0, [rho], [L])[0][2]))
            assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_bulk_dominates_large_L_low_density(self):
        assert phase_map(1.0, [0.05], [300.0])[0][2] == "bulk"

    def test_corner_dominates_high_density(self):
        assert phase_map(1.0, [2.0], [5.0])[0][2] == "corner"

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
