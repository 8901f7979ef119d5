"""Domain geometry: volumes, feature inventories, containment, sampling."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from prismnet.channel import ModelError, model_from_spec
from prismnet.geometry import (
    BoundaryFeature,
    GeometryError,
    Polygon2D,
    build_half_cylinder,
    build_house,
    build_right_prism,
    domain_from_spec,
    house_base_polygon,
)

SQRT2 = math.sqrt(2.0)
PAIRS = r"base must be a list of \[x, y\] number pairs"


def cauchy_surface_area(vertices, n=500):
    """A convex body's surface area by Cauchy's formula: 4 times its mean
    shadow area, over n Fibonacci-sphere directions.  Each shadow is the 2-D
    convex hull of the body's vertices projected on the plane normal to the
    direction (a 2-D hull's ``volume`` is its area)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = np.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    shadows = []
    for u in np.column_stack([r * np.cos(phi), r * np.sin(phi), z]):
        a = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
        a /= np.linalg.norm(a)
        shadows.append(ConvexHull(vertices @ np.column_stack([a, np.cross(u, a)])).volume)
    return 4.0 * np.mean(shadows)


def extrude(polygon, depth):
    """The vertices of a polygon (q, 2) extruded along a third axis to depth, (2q, 3)."""
    v = np.asarray(polygon)
    return np.vstack([np.column_stack([v, np.full(len(v), z)]) for z in (0.0, depth)])


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

    def test_surface_area_matches_cauchy(self):
        # The pentagon lies in x-z and extrudes along y; the area does not
        # depend on which axis is which.
        house = build_house(5.0)
        shape = extrude(house_base_polygon(5.0).vertices, 5.0)
        assert_allclose(cauchy_surface_area(shape), house.surface_area, rtol=1e-3)

    def test_feature_counts(self):
        f = build_house(3.0).features()
        q = 5
        assert sum(c.multiplicity for c in f.corners) == 2 * q
        assert sum(e.multiplicity for e in f.edges) == 3 * q

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
        p = d.sample(200_000, [rng])[0]
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
        assert sum(c.multiplicity for c in f.corners) == 4
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
        p = d.sample(200_000, [rng])[0]
        assert np.all(d.contains(p))
        s = np.hypot(p[:, 0], p[:, 1])
        se = s.std() / math.sqrt(len(s))
        assert abs(s.mean() - 2.0 * r / 3.0) < 4 * se


class TestRightPrism:
    def test_cube_features(self):
        f = unit_cube().features()
        assert sum(c.multiplicity for c in f.corners) == 8
        assert sum(e.multiplicity for e in f.edges) == 12
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
        p = d.sample(50_000, [rng])[0]
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
        assert np.all(prism.contains(prism.sample(2000, [np.random.default_rng(seed)])[0]))

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

    @settings(max_examples=20, deadline=None, database=None)
    @given(prism=convex_prisms())
    def test_surface_area_matches_cauchy(self, prism):
        shape = extrude(prism.base.vertices, prism.height)
        assert_allclose(cauchy_surface_area(shape), prism.surface_area, rtol=1e-3)

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
        assert sum(c.multiplicity for c in prism.features().corners) == 2 * len(prism.base.vertices)


half_cylinders = st.builds(build_half_cylinder, st.floats(0.1, 10.0), st.floats(0.1, 10.0))


class TestHalfCylinderProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(cyl=half_cylinders, seed=st.integers(0, 2**32 - 1))
    def test_samples_inside(self, cyl, seed):
        assert np.all(cyl.contains(cyl.sample(2000, [np.random.default_rng(seed)])[0]))

    @settings(max_examples=40, deadline=None, database=None)
    @given(cyl=half_cylinders)
    def test_volume_matches_monte_carlo(self, cyl):
        # Uniform points in the bounding box; 5 standard errors of the hit count.
        lo = np.array([-cyl.radius, 0.0, 0.0])
        hi = np.array([cyl.radius, cyl.radius, cyl.height])
        n = 20_000
        pts = lo + (hi - lo) * np.random.default_rng(0).random((n, 3))
        p = cyl.contains(pts).mean()
        box = float(np.prod(hi - lo))
        assert abs(box * p - cyl.volume) <= 5 * box * math.sqrt(p * (1 - p) / n)

    @settings(max_examples=40, deadline=None, database=None)
    @given(cyl=half_cylinders)
    def test_spec_round_trip(self, cyl):
        spec = cyl.to_spec()
        again = domain_from_spec(json.loads(json.dumps(spec)))
        assert again.to_spec() == spec
        assert again.volume == cyl.volume
        assert again.features() == cyl.features()

    @settings(max_examples=40, deadline=None, database=None)
    @given(cyl=half_cylinders)
    def test_four_right_angle_corners(self, cyl):
        f = cyl.features()
        assert sum(c.multiplicity for c in f.corners) == 4
        assert all(c.dihedral == 0.5 * np.pi for c in f.corners)


houses = st.builds(build_house, st.floats(0.1, 10.0))


class TestPrismIdentities:
    """Every domain is a base extruded to its height, and each kind's base
    has the closed-form area and perimeter of its shape."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(domain=st.one_of(houses, half_cylinders, convex_prisms()))
    def test_volume_and_surface_area(self, domain):
        base, h = domain.base, domain.height
        assert domain.volume == base.area * h
        assert domain.surface_area == 2.0 * base.area + base.perimeter * h
        if domain.kind == "house":
            L = domain.L
            assert h == L
            assert_allclose([base.area, base.perimeter], [1.25 * L**2, (3 + SQRT2) * L])
        elif domain.kind == "half_cylinder":
            r = domain.radius
            assert_allclose([base.area, base.perimeter], [0.5 * np.pi * r**2, (np.pi + 2) * r])


class TestHouseProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(L=st.floats(-100.0, 100.0).map(lambda e: 10.0**e))
    def test_features_scale_from_the_unit_house(self, L):
        # phase_map evaluates the unit house and scales its measures by L^(3 - codim).
        unit = build_house(1.0).features().all_features()
        scaled = build_house(L).features().all_features()
        assert [(f.codim, f.label, f.multiplicity, f.dihedral) for f in scaled] == [
            (u.codim, u.label, u.multiplicity, u.dihedral) for u in unit
        ]
        for f, u in zip(scaled, unit):
            assert_allclose(f.measure, L ** (3 - f.codim) * u.measure, rtol=1e-12, atol=0)

    def test_tiny_house_keeps_its_edge_lengths_apart(self):
        # 9 edges of length L and 4 of L / sqrt(2) share the right angle;
        # lengths are told apart relative to their size, at any scale.
        edges = build_house(1e-9).features().edges
        assert [(e.label, e.multiplicity) for e in edges] == [("E1", 4), ("E1", 9), ("E2", 2)]
        assert_allclose([e.measure for e in edges], [1e-9 / math.sqrt(2), 1e-9, 1e-9], rtol=1e-15)


HEXAGON = [[2 * math.cos(k * math.pi / 3), 2 * math.sin(k * math.pi / 3)] for k in range(6)]
RIGHT, OBLIQUE = 0.5 * np.pi, 0.75 * np.pi
# Each kind's inventory, pinned: (label, codim, multiplicity, dihedral,
# measure) per feature.  At these sizes the volumes and areas are each kind's
# closed forms bit for bit: the house's 1.25 L^3 and (11 + 2 sqrt 2) L^2 / 2,
# the half-cylinder's pi r^2 h / 2 and pi r^2 + 2 r h + pi r h.
PINNED_FEATURES = [
    (
        build_house(5.0),
        [
            ("U", 0, 1, None, 156.25),
            ("F", 1, 1, None, 172.85533905932738),
            ("E1", 2, 4, RIGHT, 3.5355339059327378),
            ("E1", 2, 9, RIGHT, 5.0),
            ("E2", 2, 2, OBLIQUE, 5.0),
            ("C1", 3, 6, RIGHT, 1.0),
            ("C2", 3, 4, OBLIQUE, 1.0),
        ],
    ),
    (
        build_half_cylinder(5.0, 4.0),
        [
            ("U", 0, 1, None, 157.07963267948966),
            ("F", 1, 1, None, 181.3716694115407),
            ("E", 2, 2, RIGHT, 4.0),
            ("E", 2, 2, RIGHT, 10.0),
            ("E", 2, 2, RIGHT, 15.707963267948966),
            ("C", 3, 4, RIGHT, 1.0),
        ],
    ),
    (
        build_right_prism(Polygon2D(HEXAGON), 3.0),
        [
            ("U", 0, 1, None, 31.176914536239792),
            ("F", 1, 1, None, 56.78460969082653),
            ("E1", 2, 12, RIGHT, 1.9999999999999998),
            ("E2", 2, 6, 2.0943951023931957, 3.0),
            ("C", 3, 12, 2.0943951023931957, 1.0),
        ],
    ),
]


@pytest.mark.parametrize(
    "domain, want", PINNED_FEATURES, ids=["house", "half-cylinder", "hex-prism"]
)
def test_pinned_features(domain, want):
    got = domain.features().all_features()
    assert [(f.label, f.codim, f.multiplicity, f.dihedral) for f in got] == [w[:4] for w in want]
    assert_allclose([f.measure for f in got], [w[4] for w in want], rtol=1e-15, atol=0)


def reference_sample(domain, n, rng):
    """One trial's points as a one-trial sampler draws them, ``random(n)`` by
    ``random(n)``; the batched sampler must match it bit for bit."""

    def triangle(a, b, c, u1, u2):
        over = u1 + u2 > 1.0
        u1 = np.where(over, 1.0 - u1, u1)[:, None]
        u2 = np.where(over, 1.0 - u2, u2)[:, None]
        return a + u1 * (b - a) + u2 * (c - a)

    if domain.kind == "house":
        L = domain.L
        in_roof = rng.random(n) < 0.2
        x = rng.random(n) * L
        y = rng.random(n) * L
        z = rng.random(n) * L
        n_roof = int(np.count_nonzero(in_roof))
        if n_roof:
            apex, left, right = np.array([0.5 * L, 1.5 * L]), np.array([0.0, L]), np.array([L, L])
            xz = triangle(left, right, apex, rng.random(n_roof), rng.random(n_roof))
            x[in_roof] = xz[:, 0]
            z[in_roof] = xz[:, 1]
        return np.column_stack([x, y, z])
    if domain.kind == "half_cylinder":
        s = domain.radius * np.sqrt(rng.random(n))
        phi = np.pi * rng.random(n)
        z = domain.height * rng.random(n)
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    v = domain.base.vertices
    tris = [(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1)]
    areas = np.array(
        [abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]) * 0.5 for a, b, c in tris]
    )
    idx = rng.choice(len(tris), size=n, p=areas / areas.sum())
    a, b, c = np.array(tris).transpose(1, 0, 2)[:, idx]
    xy = triangle(a, b, c, rng.random(n), rng.random(n))
    return np.column_stack([xy, rng.random(n) * domain.height])


SAMPLED_DOMAINS = [
    build_house(5.0),
    build_half_cylinder(5.0, 4.0),
    build_right_prism(Polygon2D(HEXAGON), 3.0),
    build_right_prism(Polygon2D([[0, 0], [3, 0], [2, 1], [0.5, 2]]), 0.5),
]


class TestBatchedSampling:
    """A batch's points are each trial's own points, from its own generator."""

    @pytest.mark.parametrize("domain", SAMPLED_DOMAINS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("n, trials", [(156, 10), (40, 168), (3, 16), (1, 7), (25, 1)])
    def test_matches_one_trial_sampler(self, domain, n, trials):
        rngs = [np.random.default_rng([11, t]) for t in range(trials)]
        twins = [np.random.default_rng([11, t]) for t in range(trials)]
        got = domain.sample(n, rngs)
        assert got.shape == (trials, n, 3) and got.flags.c_contiguous
        want = np.stack([reference_sample(domain, n, twin) for twin in twins])
        assert got.tobytes() == want.tobytes()
        # Each generator is left where the one-trial sampler leaves its twin.
        for rng, twin in zip(rngs, twins):
            assert rng.random() == twin.random()

    def test_house_batch_with_and_without_roof_nodes(self):
        # Three nodes: a trial draws no roof node with probability 0.512, so
        # this batch mixes trials with no roof draws and trials with some.
        house = build_house(2.0)
        rngs = [np.random.default_rng([5, t]) for t in range(16)]
        roof = [np.count_nonzero(np.random.default_rng([5, t]).random(3) < 0.2) for t in range(16)]
        assert 0 in roof and max(roof) > 1
        twins = [np.random.default_rng([5, t]) for t in range(16)]
        got = house.sample(3, rngs)
        want = np.stack([reference_sample(house, 3, twin) for twin in twins])
        assert got.tobytes() == want.tobytes()
        assert np.all(house.contains(got.reshape(-1, 3)))
        assert [rng.random() for rng in rngs] == [twin.random() for twin in twins]


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
        # The reader's whole messages, as the CLI prints them.
        not_an_object = "domain spec must be an object with a 'kind' field"
        field = "domain spec field"
        pairs = f"prism {field} base must be a list of [x, y] number pairs"
        for spec, message in (
            ({"kind": "torus"}, "unknown domain kind 'torus'"),
            ({"kind": "house"}, "domain spec missing field 'L'"),
            # Of several missing fields, the first in sorted order.
            ({"kind": "half_cylinder"}, "domain spec missing field 'h'"),
            ([1, 2, 3], not_an_object),
            ('{"kind": "house", "L": 5.0}', not_an_object),
            (
                {"kind": "house", "L": 5, "height": 1, "Z": 1},
                "house domain spec has unknown field(s): Z, height",
            ),
            ({"kind": "house", "L": "x"}, f"house {field} is not a number: 'x'"),
            (
                {"kind": "half_cylinder", "r": [1.0], "h": 1.0},
                f"half_cylinder {field} is not a number: [1.0]",
            ),
            ({"kind": "prism", "base": "x", "height": 1.0}, pairs),
            ({"kind": "prism", "base": [[0, 0], [1, 0], [0]], "height": 1.0}, pairs),
            (
                {"kind": "prism", "base": [[0, 0], [1, 0], [0, 1]], "height": "x"},
                f"prism {field} is not a number: 'x'",
            ),
        ):
            with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
                domain_from_spec(spec)
        with pytest.raises(GeometryError):
            build_house(-1.0)
        bad_height = "^half_cylinder height must be positive and finite$"
        with pytest.raises(GeometryError, match=bad_height):
            build_half_cylinder(1.0, 0.0)
        bad_radius = "^half_cylinder radius must be positive and finite$"
        for r in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(GeometryError, match=bad_radius):
                build_half_cylinder(r, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(GeometryError):
                build_house(bad)
            with pytest.raises(GeometryError, match=bad_height):
                build_half_cylinder(1.0, bad)
            with pytest.raises(GeometryError):
                build_right_prism(Polygon2D([[0, 0], [1, 0], [0, 1]]), bad)
            with pytest.raises(GeometryError):
                Polygon2D([[0, 0], [1, 0], [bad, 1]])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "house", "L": True}, "not a number"),
            ({"kind": "house", "L": "5"}, "not a number"),
            ({"kind": "half_cylinder", "r": 5, "h": np.bool_(True)}, "not a number"),
            ({"kind": "prism", "base": [[0, 0], [True, 0], [0, 1]], "height": 1}, "not a number"),
            ({"kind": "prism", "base": [[0, 0], ["1", 0], [0, 1]], "height": 1}, "not a number"),
            ({"kind": "house", "L": 10**400}, "too large"),
            ({"kind": "prism", "base": [[0, 0], [10**400, 0], [0, 1]], "height": 1}, "too large"),
            ({"kind": "prism", "base": [[0, 0], [1, 0], [0, 1]], "height": 10**400}, "too large"),
            ({"kind": "prism", "base": 5, "height": 1}, PAIRS),
            ({"kind": "prism", "base": np.array(5.0), "height": 1}, PAIRS),
        ],
        ids=["L-bool", "L-text", "h-numpy-bool", "vertex-bool", "vertex-text", "L-big-int",
             "vertex-big-int", "height-big-int", "base-number", "base-numpy-scalar"],
    )
    def test_fields_are_json_numbers(self, spec, message):
        with pytest.raises(GeometryError, match=message):
            domain_from_spec(spec)

    def test_numpy_scalars_are_numbers(self):
        spec = {"kind": "prism", "base": np.array([[0, 0], [2, 0], [0, 2]]), "height": np.int64(3)}
        assert domain_from_spec(spec).volume == 6.0
        house = domain_from_spec({"kind": "house", "L": np.float32(2.0)})
        assert house.to_spec() == {"kind": "house", "L": 2.0}

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
            BoundaryFeature(codim=0, measure=math.inf)

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


# Objects over the domain and model readers' discriminators and fields: a
# kind and its fields, one time in four with more fields over them, and one
# time in four with one field dropped.  The values mix the readers' kinds,
# sizes that build, numbers that overflow or are not finite, non-numbers and
# bases of every shape.
SPEC_SHAPES = [
    ("kind", "house", ["L"]),
    ("kind", "half_cylinder", ["r", "h"]),
    ("kind", "prism", ["base", "height"]),
    ("family", "mimo_mrc_2x2", ["beta", "eta"]),
    ("family", "rayleigh", ["beta", "eta"]),
    ("family", "hard_disk", ["r0"]),
]
SPEC_FIELDS = st.sampled_from(
    ["kind", "family", "L", "r", "h", "base", "height", "beta", "eta", "r0"]
)
SPEC_SIZES = st.floats(0.5, 20.0) | st.sampled_from([2, 3.0])
SPEC_NUMBERS = SPEC_SIZES | st.sampled_from([0, -1, 10**400]) | st.floats()
SPEC_VALUES = (
    SPEC_NUMBERS
    | st.integers()
    | st.sampled_from([kind for _, kind, _ in SPEC_SHAPES])
    | st.lists(st.lists(SPEC_NUMBERS, max_size=3), max_size=4)
    | st.booleans()
    | st.none()
    | st.text(max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)


@st.composite
def spec_objects(draw):
    key, kind, fields = draw(st.sampled_from(SPEC_SHAPES))
    spec = {key: kind}
    # Three times in four a field gets what a spec takes: a size or a base.
    for field in fields:
        likely = st.just([[0, 0], [2, 0], [2, 1], [0, 1]]) if field == "base" else SPEC_SIZES
        spec[field] = draw(likely if draw(st.integers(0, 3)) else SPEC_VALUES)
    if not draw(st.integers(0, 3)):
        spec.update(draw(st.dictionaries(SPEC_FIELDS, SPEC_VALUES, min_size=1, max_size=3)))
    if not draw(st.integers(0, 3)):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


@settings(max_examples=300, deadline=None, database=None)
@given(spec_objects())
def test_any_spec_object_builds_or_raises_the_readers_error(spec):
    # Each reader builds what reads back to its own spec, or raises its own
    # error; no other exception escapes either.
    for read, error in ((domain_from_spec, GeometryError), (model_from_spec, ModelError)):
        try:
            built = read(spec)
        except error:
            continue
        written = json.loads(json.dumps(built.to_spec()))
        assert read(written).to_spec() == written
