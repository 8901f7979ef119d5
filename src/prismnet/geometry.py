"""Bounding domains and their boundary-feature inventories.

Supported domains are convex right prisms (a convex polygon extruded along
z) and the half-cylinder.  The "house" prism -- a square of side L topped
by a right-angled isoceles roof, extruded to depth L -- is provided as a
ready-made constructor because it is the main worked example of the
analytic pipeline.

Every domain lists its boundary features the same way: the bulk, one face
entry, then edge and corner groups built by ``_inventory`` from
(dihedral, length, count) edge entries and (dihedral, count) corner
entries.  Dihedrals within ANGLE_TOL of each other form one angle class,
and every member takes the class's first angle, so a class is one exact
float wherever it is compared.  Within a class, edges of equal length merge
into one feature with a multiplicity.  Every feature is named: U, F, then
E or E1, E2, ... and C or C1, C2, ... by increasing angle.  A domain whose
volume or surface area overflows a float is too large; one whose volume,
surface area or base cross products underflow is too small.

All lengths are dimensionless program units.  Domains are immutable after
construction and safe for concurrent reads; sampling takes a caller-owned
numpy Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import InputError

# Tolerance (relative to the coordinate scale) below which two vertices are
# considered coincident.
_VERTEX_TOL = 1e-12
# Tolerance in radians when classifying dihedral angles into equal groups.
ANGLE_TOL = 1e-9


class GeometryError(InputError):
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
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.roll(v, -1, axis=0) - v
            cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        if not np.all(np.isfinite(cross)):
            raise GeometryError("polygon is too large: its edge cross products overflow")
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        if np.any(lengths <= _VERTEX_TOL * scale):
            raise GeometryError("repeated vertices")
        if np.any(cross <= 0.0):
            # |cross| is at most the product of the two edge lengths.
            if np.any(lengths * np.roll(lengths, -1) < np.finfo(float).tiny):
                raise GeometryError("polygon is too small: its edge cross products underflow")
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
        """Membership of each row of an (n, 2) point array (closed region)."""
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
    ``dihedral`` is set for edges and corners only.  ``label`` names the
    feature's term (U, F, E..., C...) in a domain's inventory.
    """

    codim: int
    measure: float
    solid_angle: float
    multiplicity: int = 1
    dihedral: float | None = None
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.measure) and self.measure > 0):
            raise GeometryError(f"feature measure must be positive and finite, got {self.measure}")
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

    def contains(self, points) -> np.ndarray:
        """Membership of each row of an (n, 3) point array (closed region)."""
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n points uniformly over the volume, shape (n, 3)."""
        raise NotImplementedError

    def to_spec(self) -> dict:
        raise NotImplementedError

    def _check_size(self):
        """Reject a domain whose volume or surface area overflows a float or underflows to 0."""
        try:
            sizes = (self.volume, self.surface_area)
        except OverflowError:
            sizes = (math.inf,)
        if not all(math.isfinite(x) for x in sizes):
            raise GeometryError(
                f"{self.kind} domain is too large: its volume or surface area overflows"
            )
        if not all(x > 0 for x in sizes):
            raise GeometryError(
                f"{self.kind} domain is too small: its volume or surface area underflows"
            )


def _merge(entries, prefix: str) -> list[tuple]:
    """Merge (dihedral, measure, count) entries into (label, dihedral, measure,
    count) groups sorted by (dihedral, measure).

    An entry whose dihedral lies within ANGLE_TOL of an earlier class takes
    that class's first angle; within a class, equal measures (relative
    ANGLE_TOL) add their counts.  Class first angles lie more than ANGLE_TOL
    apart, so once an entry has joined a class no other class matches it.
    One class is labelled ``prefix``; several are numbered by increasing angle.
    """
    groups: list[list] = []
    for ang, measure, cnt in entries:
        for g in groups:
            if abs(g[0] - ang) <= ANGLE_TOL:
                ang = g[0]
                if abs(g[1] - measure) <= ANGLE_TOL * max(1.0, measure):
                    g[2] += cnt
                    break
        else:
            groups.append([ang, measure, cnt])
    angles = sorted({g[0] for g in groups})
    label = {a: f"{prefix}{i + 1}" if len(angles) > 1 else prefix for i, a in enumerate(angles)}
    return [(label[a], a, m, c) for a, m, c in sorted(groups)]


def _inventory(volume: float, area: float, edges, corners) -> FeatureSet:
    """A domain's labelled FeatureSet from (dihedral, length, count) edge
    entries and (dihedral, count) corner entries; see ``_merge``."""
    return FeatureSet(
        bulk=BoundaryFeature(codim=0, measure=volume, solid_angle=4.0 * np.pi, label="U"),
        face=BoundaryFeature(codim=1, measure=area, solid_angle=2.0 * np.pi, label="F"),
        edges=tuple(
            BoundaryFeature(
                codim=2, measure=m, solid_angle=2.0 * a, multiplicity=c, dihedral=a, label=lab
            )
            for lab, a, m, c in _merge(edges, "E")
        ),
        corners=tuple(
            BoundaryFeature(
                codim=3, measure=1.0, solid_angle=a, multiplicity=c, dihedral=a, label=lab
            )
            for lab, a, _, c in _merge(((a, 1.0, c) for a, c in corners), "C")
        ),
    )


def _prism_features(base: Polygon2D, height: float, volume: float, area: float) -> FeatureSet:
    angles = [float(a) for a in base.interior_angles()]
    # Cap edges: every base-polygon edge appears on both caps at a right angle.
    edges = [(0.5 * np.pi, float(length), 2) for length in base.edge_lengths]
    # Axial edges: one per base vertex, dihedral equal to the vertex angle.
    edges += [(ang, float(height), 1) for ang in angles]
    # Corners: every base vertex on both caps.
    return _inventory(volume, area, edges, [(ang, 2) for ang in angles])


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
        with np.errstate(over="ignore", invalid="ignore"):  # the base area may overflow
            self._check_size()
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
        ok = (p[:, 2] >= 0.0) & (p[:, 2] <= self.height)
        return ok & self.base.contains(p[:, :2])

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
        self._check_size()

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
        L = self.L
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        inside_xy = (x >= 0) & (x <= L) & (y >= 0) & (y <= L)
        wall = z >= 0
        roof_halfwidth = 1.5 * L - z
        in_roof = (z <= 1.5 * L) & (np.abs(x - 0.5 * L) <= roof_halfwidth)
        return inside_xy & wall & np.where(z <= L, True, in_roof)

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
        self._check_size()

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
        # Two semicircle arcs, two flat-face ends, two axial edges; four corners.
        edges = [(right, np.pi * r, 2), (right, 2.0 * r, 2), (right, h, 2)]
        return _inventory(self.volume, self.surface_area, edges, [(right, 4)])

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        r, h = self.radius, self.height
        return (
            (p[:, 0] ** 2 + p[:, 1] ** 2 <= r**2 * (1.0 + 1e-15))
            & (p[:, 1] >= 0.0)
            & (p[:, 2] >= 0.0)
            & (p[:, 2] <= h)
        )

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


def domain_from_spec(spec: dict) -> Domain:
    """Build a domain from its specification, a dict of one of these forms::

        {"kind": "house", "L": 5.0}
        {"kind": "half_cylinder", "r": 5.0, "h": 4.0}
        {"kind": "prism", "base": [[x, y], ...], "height": h}
    """
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
