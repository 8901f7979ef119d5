"""Domain geometry: volumes, feature inventories, containment, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from prismnet.geometry import (
    BoundaryFeature,
    GeometryError,
    Polygon2D,
    build_half_cylinder,
    build_house,
    build_right_prism,
    domain_from_spec,
)

SQRT2 = math.sqrt(2.0)


def unit_cube():
    return build_right_prism(Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]]), 1.0)


class TestPolygon2D:
    def test_area_perimeter(self):
        p = Polygon2D([[0, 0], [2, 0], [2, 1], [0, 1]])
        assert_allclose(p.area, 2.0)
        assert_allclose(p.perimeter, 6.0)

    def test_interior_angles_square(self):
        p = Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert_allclose(p.interior_angles(), np.pi / 2)

    def test_house_pentagon_angles(self):
        p = Polygon2D([[0, 0], [1, 0], [1, 1], [0.5, 1.5], [0, 1]])
        angles = np.sort(p.interior_angles())
        assert_allclose(angles, [np.pi / 2] * 3 + [3 * np.pi / 4] * 2)

    def test_contains(self):
        p = Polygon2D([[0, 0], [1, 0], [1, 1], [0, 1]])
        inside = p.contains(np.array([[0.5, 0.5], [1.5, 0.5], [0.0, 0.0]]))
        assert inside.tolist() == [True, False, True]

    def test_rejects_clockwise(self):
        with pytest.raises(GeometryError):
            Polygon2D([[0, 0], [0, 1], [1, 1], [1, 0]])

    def test_rejects_collinear(self):
        with pytest.raises(GeometryError):
            Polygon2D([[0, 0], [1, 0], [2, 0], [1, 1]])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(GeometryError):
            Polygon2D([[0, 0], [1, 0], [1, 0], [0, 1]])


class TestHouse:
    def test_volume_surface(self):
        assert_allclose(build_house(1.0).volume, 1.25)
        assert_allclose(build_house(2.0).surface_area, 2 * (11 + 2 * SQRT2))

    def test_feature_counts(self):
        f = build_house(3.0).features()
        q = 5
        assert f.corner_count == 2 * q
        assert f.edge_count == 3 * q

    def test_corner_groups(self):
        f = build_house(3.0).features()
        by_angle = {round(c.dihedral, 12): c.multiplicity for c in f.corners}
        assert by_angle == {round(np.pi / 2, 12): 6, round(3 * np.pi / 4, 12): 4}
        for c in f.corners:
            assert_allclose(c.solid_angle, c.dihedral)

    def test_edge_groups(self):
        L = 3.0
        f = build_house(L).features()
        right = sum(e.measure * e.multiplicity for e in f.edges if abs(e.dihedral - np.pi / 2) < 1e-9)
        oblique = sum(
            e.measure * e.multiplicity for e in f.edges if abs(e.dihedral - 3 * np.pi / 4) < 1e-9
        )
        assert_allclose(right, (9 + 2 * SQRT2) * L)
        assert_allclose(oblique, 2 * L)
        for e in f.edges:
            assert_allclose(e.solid_angle, 2 * e.dihedral)

    def test_features_consistent_with_closed_forms(self):
        L = 4.0
        d = build_house(L)
        f = d.features()
        assert_allclose(f.bulk.measure, 1.25 * L**3, rtol=1e-12)
        assert_allclose(f.face.measure, (11 + 2 * SQRT2) / 2 * L**2, rtol=1e-12)

    def test_contains(self):
        d = build_house(1.0)
        pts = np.array([[0.5, 0.5, 0.5], [0.99, 0.5, 1.49], [0.5, 0.5, 1.49], [0.5, 1.2, 0.5]])
        assert d.contains(pts).tolist() == [True, False, True, False]

    def test_sampling_moments(self):
        d = build_house(1.0)
        rng = np.random.default_rng(42)
        p = d.sample(200_000, rng)
        assert np.all(d.contains(p))
        # E[z] = 19/30 from the box + roof-prism decomposition.
        se = p[:, 2].std() / math.sqrt(len(p))
        assert abs(p[:, 2].mean() - 19.0 / 30.0) < 4 * se
        # Roof holds 1/5 of the volume.
        frac = (p[:, 2] > 1.0).mean()
        assert abs(frac - 0.2) < 4 * math.sqrt(0.2 * 0.8 / len(p))


class TestHalfCylinder:
    def test_volume_surface(self):
        d = build_half_cylinder(5.0, 4.0)
        assert_allclose(d.volume, np.pi * 25 * 4 / 2)
        assert_allclose(d.surface_area, np.pi * 25 + 2 * 5 * 4 + np.pi * 5 * 4)

    def test_features(self):
        r, h = 5.0, 4.0
        f = build_half_cylinder(r, h).features()
        assert f.corner_count == 4
        assert all(abs(c.dihedral - np.pi / 2) < 1e-12 for c in f.corners)
        total_edge = sum(e.measure * e.multiplicity for e in f.edges)
        assert_allclose(total_edge, 2 * np.pi * r + 4 * r + 2 * h)
        assert all(abs(e.dihedral - np.pi / 2) < 1e-12 for e in f.edges)

    def test_contains(self):
        d = build_half_cylinder(1.0, 1.0)
        pts = np.array([[0, -0.1, 0.5], [0, 0.5, 0.5], [0.8, 0.7, 0.5], [0, 0.5, 1.1]])
        assert d.contains(pts).tolist() == [False, True, False, False]

    def test_sampling_moments(self):
        r = 2.0
        d = build_half_cylinder(r, 1.0)
        rng = np.random.default_rng(7)
        p = d.sample(200_000, rng)
        assert np.all(d.contains(p))
        s = np.hypot(p[:, 0], p[:, 1])
        se = s.std() / math.sqrt(len(s))
        assert abs(s.mean() - 2.0 * r / 3.0) < 4 * se


class TestRightPrism:
    def test_cube_features(self):
        f = unit_cube().features()
        assert f.corner_count == 8
        assert f.edge_count == 12
        assert len(f.edges) == 1
        assert_allclose(f.edges[0].measure, 1.0)
        assert_allclose(f.edges[0].dihedral, np.pi / 2)
        assert_allclose(f.bulk.measure, 1.0)
        assert_allclose(f.face.measure, 6.0)

    def test_surface_matches_formula(self):
        base = Polygon2D([[0, 0], [2, 0], [2, 1], [0, 1]])
        d = build_right_prism(base, 3.0)
        assert_allclose(d.volume, base.area * 3.0, rtol=1e-12)
        assert_allclose(d.surface_area, 2 * base.area + base.perimeter * 3.0, rtol=1e-12)

    def test_sampling_inside(self):
        base = Polygon2D([[0, 0], [1, 0], [0.5, 1]])
        d = build_right_prism(base, 2.0)
        rng = np.random.default_rng(1)
        p = d.sample(50_000, rng)
        assert np.all(d.contains(p))
        assert_allclose(p[:, 2].mean(), 1.0, atol=0.02)


@st.composite
def convex_prisms(draw):
    """A right prism on a random strictly convex base: points on an ellipse at
    increasing angles whose gaps (the last one wraps around) are at least 1/111
    of the turn, shifted off the origin."""
    gaps = draw(st.lists(st.floats(1.0, 10.0), min_size=3, max_size=12))
    ax, ay = draw(st.tuples(st.floats(0.5, 5.0), st.floats(0.5, 5.0)))
    cx, cy = draw(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    turns = 2 * np.pi * np.cumsum(gaps) / np.sum(gaps)
    base = [[cx + ax * math.cos(t), cy + ay * math.sin(t)] for t in turns]
    return build_right_prism(Polygon2D(base), draw(st.floats(0.1, 10.0)))


class TestRightPrismProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(prism=convex_prisms(), seed=st.integers(0, 2**32 - 1))
    def test_samples_inside(self, prism, seed):
        assert np.all(prism.contains(prism.sample(2000, np.random.default_rng(seed))))

    @settings(max_examples=40, deadline=None, database=None)
    @given(prism=convex_prisms())
    def test_volume_matches_monte_carlo(self, prism):
        # Uniform points in the bounding box; 5 standard errors of the hit count.
        lo = np.append(prism.base.vertices.min(axis=0), 0.0)
        hi = np.append(prism.base.vertices.max(axis=0), prism.height)
        n = 20_000
        pts = lo + (hi - lo) * np.random.default_rng(0).random((n, 3))
        p = prism.contains(pts).mean()
        box = float(np.prod(hi - lo))
        assert abs(box * p - prism.volume) <= 5 * box * math.sqrt(p * (1 - p) / n)

    @settings(max_examples=40, deadline=None, database=None)
    @given(prism=convex_prisms())
    def test_spec_round_trip(self, prism):
        spec = prism.to_spec()
        again = domain_from_spec(json.loads(json.dumps(spec)))
        assert again.to_spec() == spec
        assert again.volume == prism.volume
        assert again.features() == prism.features()

    @settings(max_examples=40, deadline=None, database=None)
    @given(prism=convex_prisms())
    def test_corner_multiplicity_is_twice_the_vertex_count(self, prism):
        assert prism.features().corner_count == 2 * prism.base.q


class TestSpecs:
    def test_round_trip(self):
        for spec in (
            {"kind": "house", "L": 5.0},
            {"kind": "half_cylinder", "r": 5.0, "h": 4.0},
            {"kind": "prism", "base": [[0, 0], [1, 0], [1, 1], [0, 1]], "height": 2.0},
        ):
            d = domain_from_spec(spec)
            d2 = domain_from_spec(d.to_spec())
            assert_allclose(d2.volume, d.volume, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(GeometryError):
            domain_from_spec({"kind": "torus"})
        with pytest.raises(GeometryError):
            domain_from_spec({"kind": "house"})
        with pytest.raises(GeometryError):
            domain_from_spec([1, 2, 3])
        with pytest.raises(GeometryError, match="must be an object"):
            domain_from_spec('{"kind": "house", "L": 5.0}')
        with pytest.raises(GeometryError):
            build_house(-1.0)
        with pytest.raises(GeometryError):
            build_half_cylinder(1.0, 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(GeometryError):
                build_house(bad)
            with pytest.raises(GeometryError):
                build_half_cylinder(bad, 1.0)
            with pytest.raises(GeometryError):
                build_half_cylinder(1.0, bad)
            with pytest.raises(GeometryError):
                build_right_prism(Polygon2D([[0, 0], [1, 0], [0, 1]]), bad)
            with pytest.raises(GeometryError):
                Polygon2D([[0, 0], [1, 0], [bad, 1]])
        for spec in (
            {"kind": "house", "L": "x"},
            {"kind": "half_cylinder", "r": [1.0], "h": 1.0},
            {"kind": "prism", "base": "x", "height": 1.0},
            {"kind": "prism", "base": [[0, 0], [1, 0], [0]], "height": 1.0},
            {"kind": "prism", "base": [[0, 0], [1, 0], [0, 1]], "height": "x"},
        ):
            with pytest.raises(GeometryError):
                domain_from_spec(spec)

    @pytest.mark.filterwarnings("error")  # an overflow RuntimeWarning fails the test
    def test_overflowing_sizes(self):
        for build in (
            lambda: build_house(1e120),
            lambda: build_half_cylinder(1e200, 1.0),
            lambda: build_half_cylinder(10.0, 1e308),
            lambda: build_right_prism(Polygon2D([[0, 0], [1e160, 0], [0, 1e160]]), 1.0),
            lambda: Polygon2D([[-1e308, 0], [1e308, 0], [0, 1e308]]),
            # Finite edge cross products, but the shoelace area overflows.
            lambda: build_right_prism(
                Polygon2D([[1e155, 1e155], [1.001e155, 1e155], [1e155, 1.001e155]]), 1.0
            ),
        ):
            with pytest.raises(GeometryError, match="too large"):
                build()
        with pytest.raises(GeometryError, match="finite"):
            BoundaryFeature(codim=0, measure=math.inf, solid_angle=4 * np.pi)

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "house", "L": 5.0, "height": 3.0}, "height"),
            ({"kind": "half_cylinder", "r": 5.0, "h": 4.0, "L": 1.0}, "L"),
            ({"kind": "prism", "base": [[0, 0], [1, 0], [0, 1]], "height": 1.0, "h": 1.0}, "h"),
        ],
    )
    def test_unknown_field_named(self, spec, field):
        with pytest.raises(GeometryError, match=f"unknown field\\(s\\): {field}$"):
            domain_from_spec(spec)
