"""Bounding domains and their boundary-feature inventories.

Supported domains are convex right prisms (a convex polygon extruded along
z) and the half-cylinder.  The "house" prism -- a square of side L topped
by a right-angled isoceles roof, extruded to depth L -- is provided as a
ready-made constructor because it is the main worked example of the
analytic pipeline.

All lengths are dimensionless program units.  Domains are immutable after
construction and safe for concurrent reads; sampling takes a caller-owned
numpy Generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance (relative to the coordinate scale) below which two vertices are
# considered coincident.
_VERTEX_TOL = 1e-12
# Tolerance in radians when classifying dihedral angles into equal groups.
ANGLE_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid domain specification."""


class Polygon2D:
    """Strictly convex polygon with counter-clockwise vertex order."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 two-dimensional vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        edges = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= _VERTEX_TOL * scale):
            raise GeometryError("repeated vertices")
        cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        if np.any(cross <= 0.0):
            raise GeometryError("polygon must be strictly convex with CCW winding")
        self.vertices = v
        self.vertices.setflags(write=False)

    @property
    def q(self) -> int:
        return len(self.vertices)

    @property
    def edge_vectors(self) -> np.ndarray:
        return np.roll(self.vertices, -1, axis=0) - self.vertices

    @property
    def edge_lengths(self) -> np.ndarray:
        e = self.edge_vectors
        return np.hypot(e[:, 0], e[:, 1])

    @property
    def area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))

    def interior_angles(self) -> np.ndarray:
        """Interior angle at each vertex, in (0, pi) by convexity."""
        e = self.edge_vectors
        prev = np.roll(e, 1, axis=0)
        cross = prev[:, 0] * e[:, 1] - prev[:, 1] * e[:, 0]
        dot = prev[:, 0] * e[:, 0] + prev[:, 1] * e[:, 1]
        return np.pi - np.arctan2(cross, dot)

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized point-in-polygon test (closed region)."""
        xy = np.atleast_2d(xy)
        v = self.vertices
        e = self.edge_vectors
        scale = float(np.max(np.abs(v))) or 1.0
        rel = xy[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        return np.all(cross >= -_VERTEX_TOL * scale, axis=1)


@dataclass(frozen=True)
class BoundaryFeature:
    """One boundary object: the bulk, a face group, an edge, or a corner.

    ``measure`` is the (3 - codim)-dimensional size: volume for the bulk,
    total area for the face entry, length for an edge, 1 for a corner.
    ``dihedral`` is set for edges and corners only.
    """

    codim: int
    measure: float
    solid_angle: float
    multiplicity: int = 1
    dihedral: float | None = None

    def __post_init__(self):
        if not self.measure > 0:
            raise GeometryError(f"feature measure must be positive, got {self.measure}")
        if self.codim in (2, 3):
            if self.dihedral is None or not 0.0 < self.dihedral < np.pi:
                raise GeometryError("edge/corner dihedral must lie in (0, pi)")


@dataclass(frozen=True)
class FeatureSet:
    bulk: BoundaryFeature
    face: BoundaryFeature
    edges: tuple[BoundaryFeature, ...]
    corners: tuple[BoundaryFeature, ...]

    def all_features(self):
        return (self.bulk, self.face, *self.edges, *self.corners)

    @property
    def corner_count(self) -> int:
        return sum(c.multiplicity for c in self.corners)

    @property
    def edge_count(self) -> int:
        return sum(e.multiplicity for e in self.edges)


class Domain:
    """Base class: a convex 3D region with volume, surface area, features."""

    kind: str

    @property
    def volume(self) -> float:
        raise NotImplementedError

    @property
    def surface_area(self) -> float:
        raise NotImplementedError

    def features(self) -> FeatureSet:
        raise NotImplementedError

    def contains(self, points) -> np.ndarray | bool:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points uniformly over the volume, shape (n, 3)."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError


def _group_corners(angles, counts):
    """Merge corner angles equal within ANGLE_TOL into multiplicity groups."""
    groups: list[list[float | int]] = []
    for ang, cnt in zip(angles, counts):
        for g in groups:
            if abs(g[0] - ang) <= ANGLE_TOL:
                g[1] += cnt
                break
        else:
            groups.append([ang, cnt])
    groups.sort(key=lambda g: g[0])
    return [
        BoundaryFeature(codim=3, measure=1.0, solid_angle=a, multiplicity=c, dihedral=a)
        for a, c in groups
    ]


def _group_edges(entries):
    """Merge (angle, length) edge entries equal within tolerance."""
    groups: list[list[float | int]] = []
    for ang, length, cnt in entries:
        for g in groups:
            if abs(g[0] - ang) <= ANGLE_TOL and abs(g[1] - length) <= ANGLE_TOL * max(1.0, length):
                g[2] += cnt
                break
        else:
            groups.append([ang, length, cnt])
    groups.sort(key=lambda g: (g[0], g[1]))
    return [
        BoundaryFeature(codim=2, measure=length, solid_angle=2.0 * a, multiplicity=c, dihedral=a)
        for a, length, c in groups
    ]


def _prism_features(base: Polygon2D, height: float, volume: float, area: float) -> FeatureSet:
    angles = base.interior_angles()
    corners = _group_corners(angles, [2] * base.q)
    entries = []
    # Cap edges: every base-polygon edge appears on both caps at a right angle.
    for length in base.edge_lengths:
        entries.append((0.5 * np.pi, float(length), 2))
    # Axial edges: one per base vertex, dihedral equal to the vertex angle.
    for ang in angles:
        entries.append((float(ang), float(height), 1))
    edges = _group_edges(entries)
    return FeatureSet(
        bulk=BoundaryFeature(codim=0, measure=volume, solid_angle=4.0 * np.pi),
        face=BoundaryFeature(codim=1, measure=area, solid_angle=2.0 * np.pi),
        edges=tuple(edges),
        corners=tuple(corners),
    )


def _sample_triangle(a, b, c, u1, u2):
    """Uniform points in triangle abc by the reflection method.

    a, b, c are one vertex each, shape (2,), or one row per point, shape (n, 2).
    """
    over = u1 + u2 > 1.0
    u1 = np.where(over, 1.0 - u1, u1)[:, None]
    u2 = np.where(over, 1.0 - u2, u2)[:, None]
    return a + u1 * (b - a) + u2 * (c - a)


class RightPrism(Domain):
    """Convex polygon in the x-y plane extruded along z in [0, height]."""

    kind = "prism"

    def __init__(self, base: Polygon2D, height: float):
        if not (math.isfinite(height) and height > 0):
            raise GeometryError("prism height must be positive and finite")
        self.base = base
        self.height = float(height)
        # Fan triangulation for exact uniform sampling over the base.
        v = base.vertices
        tris = [(v[0], v[i], v[i + 1]) for i in range(1, base.q - 1)]
        areas = np.array(
            [abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]) * 0.5 for a, b, c in tris]
        )
        # Vertex rows of the fan, shape (3, triangles, 2), and the normalised
        # cumulative area weights, computed as Generator.choice(p=...) does.
        self._tris = np.array(tris).transpose(1, 0, 2)
        cdf = (areas / areas.sum()).cumsum()
        self._tri_cdf = cdf / cdf[-1]

    @property
    def volume(self) -> float:
        return self.base.area * self.height

    @property
    def surface_area(self) -> float:
        return 2.0 * self.base.area + self.base.perimeter * self.height

    def features(self) -> FeatureSet:
        return _prism_features(self.base, self.height, self.volume, self.surface_area)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        ok = (p[:, 2] >= 0.0) & (p[:, 2] <= self.height)
        ok &= self.base.contains(p[:, :2])
        return bool(ok[0]) if single else ok

    def sample(self, n, rng):
        # The same draws as rng.choice(triangles, size=n, p=weights).
        idx = self._tri_cdf.searchsorted(rng.random(n), side="right")
        a, b, c = self._tris[:, idx]
        xy = _sample_triangle(a, b, c, rng.random(n), rng.random(n))
        z = rng.random(n) * self.height
        return np.column_stack([xy, z])

    def to_spec(self) -> dict:
        return {"kind": "prism", "base": self.base.vertices.tolist(), "height": self.height}


def house_base_polygon(L: float) -> Polygon2D:
    """Pentagonal house cross-section: unit-square walls plus a 45-degree roof."""
    return Polygon2D(
        [
            (0.0, 0.0),
            (L, 0.0),
            (L, L),
            (0.5 * L, 1.5 * L),
            (0.0, L),
        ]
    )


class House(Domain):
    """House prism: square base [0,L]^2 in x-y, walls z in [0,L], roof apex at z=3L/2.

    The pentagonal cross-section lives in the x-z plane and is extruded along
    y to depth L.  Sampling decomposes the region into the wall box (weight
    4/5) and the triangular roof prism (weight 1/5); both parts are sampled
    exactly, with no rejection.
    """

    kind = "house"

    def __init__(self, L: float):
        if not (math.isfinite(L) and L > 0):
            raise GeometryError("house side length must be positive and finite")
        self.L = float(L)

    @property
    def volume(self) -> float:
        return 1.25 * self.L**3

    @property
    def surface_area(self) -> float:
        return 0.5 * (11.0 + 2.0 * math.sqrt(2.0)) * self.L**2

    def features(self) -> FeatureSet:
        base = house_base_polygon(self.L)
        return _prism_features(base, self.L, self.volume, self.surface_area)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        L = self.L
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        inside_xy = (x >= 0) & (x <= L) & (y >= 0) & (y <= L)
        wall = z >= 0
        roof_halfwidth = 1.5 * L - z
        in_roof = (z <= 1.5 * L) & (np.abs(x - 0.5 * L) <= roof_halfwidth)
        ok = inside_xy & wall & np.where(z <= L, True, in_roof)
        return bool(ok[0]) if single else ok

    def sample(self, n, rng):
        L = self.L
        in_roof = rng.random(n) < 0.2
        x = rng.random(n) * L
        y = rng.random(n) * L
        z = rng.random(n) * L
        n_roof = int(np.count_nonzero(in_roof))
        if n_roof:
            apex = np.array([0.5 * L, 1.5 * L])
            left = np.array([0.0, L])
            right = np.array([L, L])
            xz = _sample_triangle(left, right, apex, rng.random(n_roof), rng.random(n_roof))
            x[in_roof] = xz[:, 0]
            z[in_roof] = xz[:, 1]
        return np.column_stack([x, y, z])

    def to_spec(self) -> dict:
        return {"kind": "house", "L": self.L}


class HalfCylinder(Domain):
    """Half-cylinder: x^2 + y^2 <= r^2, y >= 0, z in [0, h].

    The flat rectangular face lies in the y = 0 plane.  The curved face is
    lumped into the single face entry of the feature inventory; curvature
    corrections are out of scope.
    """

    kind = "half_cylinder"

    def __init__(self, radius: float, height: float):
        if not all(math.isfinite(x) and x > 0 for x in (radius, height)):
            raise GeometryError("half-cylinder radius and height must be positive and finite")
        self.radius = float(radius)
        self.height = float(height)

    @property
    def volume(self) -> float:
        return 0.5 * np.pi * self.radius**2 * self.height

    @property
    def surface_area(self) -> float:
        r, h = self.radius, self.height
        return np.pi * r**2 + 2.0 * r * h + np.pi * r * h

    def features(self) -> FeatureSet:
        r, h = self.radius, self.height
        right = 0.5 * np.pi
        corners = (
            BoundaryFeature(codim=3, measure=1.0, solid_angle=right, multiplicity=4, dihedral=right),
        )
        edges = tuple(
            BoundaryFeature(codim=2, measure=m, solid_angle=np.pi, multiplicity=c, dihedral=right)
            for m, c in sorted([(np.pi * r, 2), (2.0 * r, 2), (h, 2)])
        )
        return FeatureSet(
            bulk=BoundaryFeature(codim=0, measure=self.volume, solid_angle=4.0 * np.pi),
            face=BoundaryFeature(codim=1, measure=self.surface_area, solid_angle=2.0 * np.pi),
            edges=edges,
            corners=corners,
        )

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        r, h = self.radius, self.height
        ok = (
            (p[:, 0] ** 2 + p[:, 1] ** 2 <= r**2 * (1.0 + 1e-15))
            & (p[:, 1] >= 0.0)
            & (p[:, 2] >= 0.0)
            & (p[:, 2] <= h)
        )
        return bool(ok[0]) if single else ok

    def sample(self, n, rng):
        s = self.radius * np.sqrt(rng.random(n))
        phi = np.pi * rng.random(n)
        z = self.height * rng.random(n)
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])

    def to_spec(self) -> dict:
        return {"kind": "half_cylinder", "r": self.radius, "h": self.height}


def build_house(L: float) -> House:
    return House(L)


def build_half_cylinder(r: float, h: float) -> HalfCylinder:
    return HalfCylinder(r, h)


def build_right_prism(base: Polygon2D, h: float) -> RightPrism:
    return RightPrism(base, h)


# The fields each kind's spec may hold.
_DOMAIN_FIELDS = {
    "house": {"kind", "L"},
    "half_cylinder": {"kind", "r", "h"},
    "prism": {"kind", "base", "height"},
}


def domain_from_spec(spec: dict | str) -> Domain:
    """Build a domain from its JSON specification.

    Accepted forms::

        {"kind": "house", "L": 5.0}
        {"kind": "half_cylinder", "r": 5.0, "h": 4.0}
        {"kind": "prism", "base": [[x, y], ...], "height": h}
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GeometryError("domain spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _DOMAIN_FIELDS:
        raise GeometryError(f"unknown domain kind {kind!r}")
    extra = sorted(map(str, spec.keys() - _DOMAIN_FIELDS[kind]))
    if extra:
        raise GeometryError(f"{kind} domain spec has unknown field(s): {', '.join(extra)}")
    try:
        if kind == "house":
            return build_house(float(spec["L"]))
        if kind == "half_cylinder":
            return build_half_cylinder(float(spec["r"]), float(spec["h"]))
        return build_right_prism(Polygon2D(spec["base"]), float(spec["height"]))
    except GeometryError:
        raise
    except KeyError as exc:
        raise GeometryError(f"domain spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"domain spec field is not a number: {exc}") from exc
