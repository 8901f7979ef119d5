"""Bounding domains and their boundary-feature inventories.

Every domain is a right prism: a convex 2-D base extruded along z over
[0, h].  The base is a strictly convex polygon (``Polygon2D``) or, for the
half-cylinder, a half-disk (``HalfDisk``).  ``Domain`` derives everything
else from the base and h: the volume, the surface area, the feature
inventory, containment and uniform sampling.  The "house" prism -- a square
of side L topped by a right-angled isoceles roof, extruded to depth L -- is
provided ready-made because it is the main worked example of the analytic
pipeline.  Its pentagon stands in the x-z plane, so its containment swaps y
and z, and it keeps its own sampler.

Every domain lists its boundary features the same way: the bulk, one face
entry, then edge and corner groups.  Each base edge lies on both caps at a
right angle, each base vertex gives one axial edge at its angle, and each
base vertex lies on both caps as a corner.  The half-disk's curved face is
lumped into the face entry with the flat ones; curvature corrections are out
of scope.  Dihedrals within ANGLE_TOL of each other form one angle class,
and every member takes the class's first angle, so a class is one exact
float wherever it is compared.  Within a class, edges of equal length merge
into one feature with a multiplicity.  Every feature is named: U, F, then
E or E1, E2, ... and C or C1, C2, ... by increasing angle.  A domain whose
volume or surface area overflows a float is too large; one whose volume,
surface area or base cross products underflow is too small.

All lengths are dimensionless program units.  Domains are immutable after
construction and safe for concurrent reads (a polygon's sampling tables are
built on first use, the same by whichever caller builds them); sampling
takes caller-owned numpy Generators, one per trial of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import InputError, read_spec

# Tolerance (relative to the coordinate scale) below which two vertices are
# considered coincident.
_VERTEX_TOL = 1e-12
# Tolerance in radians when classifying dihedral angles into equal groups.
ANGLE_TOL = 1e-9


class GeometryError(InputError):
    """Invalid domain specification."""


class Polygon2D:
    """Strictly convex polygon with counter-clockwise vertex order."""

    # Uniforms per sampled point: the fan triangle and two coordinates in it.
    groups = 3

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 two-dimensional vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        scale = float(np.max(np.abs(v))) or 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.concatenate((v[1:], v[:1]))
            edges = w - v
            after = np.concatenate((edges[1:], edges[:1]))
            cross = edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0]
            # Shoelace; it may overflow, which the domain built on it rejects.
            area = 0.5 * float(np.sum(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))
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
        # Computed once, since the vertices are read-only.
        self.vertices, self.edge_vectors, self.edge_lengths = v, edges, lengths
        for a in (v, edges, lengths):
            a.setflags(write=False)
        self.area = area
        self.perimeter = float(np.sum(lengths))

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

    @cached_property
    def _fan(self):
        """Fan triangulation from vertex 0 for exact uniform sampling: per
        coordinate, each triangle's vertex and its edges b - a and c - a, and
        the normalised cumulative area weights, computed as
        Generator.choice(p=...) does.  Built on the first sample, so only a
        domain that passed its size checks builds it."""
        v = self.vertices
        ab, ac = v[1:-1] - v[0], v[2:] - v[0]
        areas = abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) * 0.5
        fan = np.array([np.broadcast_to(v[0], ab.shape), ab, ac]).transpose(2, 0, 1)
        cdf = (areas / areas.sum()).cumsum()
        return fan, cdf / cdf[-1]

    def place(self, u: np.ndarray) -> np.ndarray:
        """Uniform points from u[:, :3] (the triangle, as rng.choice(triangles,
        p=weights) draws it, then two triangle uniforms), shape u[:, 0].shape
        + (2,).  The triangle uniforms are folded in place."""
        fan, cdf = self._fan
        tri = cdf.searchsorted(u[:, 0], side="right")
        # Each coordinate's triangle rows are gathered only as it is computed.
        return _sample_triangle((f[:, tri] for f in fan), u[:, 1], u[:, 2])


class HalfDisk:
    """Half-disk x^2 + y^2 <= r^2, y >= 0: an arc and a diameter meeting at
    two right angles."""

    # Uniforms per sampled point: the radius and the angle.
    groups = 2

    def __init__(self, radius: float):
        self.radius = radius

    @property
    def area(self) -> float:
        # Not computed at construction: r**2 may raise OverflowError, which
        # the domain built on it reports as too large.
        return 0.5 * np.pi * self.radius**2

    @property
    def edge_lengths(self) -> np.ndarray:
        """The arc's length, then the diameter's."""
        return np.array([np.pi * self.radius, 2.0 * self.radius])

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.edge_lengths))

    def interior_angles(self) -> np.ndarray:
        """The right angles at the diameter's two ends."""
        return np.full(2, 0.5 * np.pi)

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Membership of each row of an (n, 2) point array (closed region)."""
        x, y = xy[:, 0], xy[:, 1]
        return (x**2 + y**2 <= self.radius**2 * (1.0 + 1e-15)) & (y >= 0.0)

    def place(self, u: np.ndarray) -> np.ndarray:
        """Uniform points from u[:, :2] (the radius, then the angle), shape
        u[:, 0].shape + (2,)."""
        s = self.radius * np.sqrt(u[:, 0])
        phi = np.pi * u[:, 1]
        return np.stack([s * np.cos(phi), s * np.sin(phi)], axis=-1)


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
    multiplicity: int = 1
    dihedral: float | None = None
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.measure) and self.measure > 0):
            raise GeometryError(f"feature measure must be positive and finite, got {self.measure}")
        if self.codim in (2, 3):
            if self.dihedral is None or not 0.0 < self.dihedral < np.pi:
                raise GeometryError("edge/corner dihedral must lie in (0, pi)")

    @property
    def solid_angle(self) -> float:
        """The domain's solid angle at the feature: 4 pi, 2 pi, 2 theta or theta by codim."""
        if self.codim < 2:
            return (4.0 * np.pi, 2.0 * np.pi)[self.codim]
        return 2.0 * self.dihedral if self.codim == 2 else self.dihedral


@dataclass(frozen=True)
class FeatureSet:
    bulk: BoundaryFeature
    face: BoundaryFeature
    edges: tuple[BoundaryFeature, ...]
    corners: tuple[BoundaryFeature, ...]

    def all_features(self):
        return (self.bulk, self.face, *self.edges, *self.corners)


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
                if abs(g[1] - measure) <= ANGLE_TOL * measure:
                    g[2] += cnt
                    break
        else:
            groups.append([ang, measure, cnt])
    angles = sorted({g[0] for g in groups})
    label = {a: f"{prefix}{i + 1}" if len(angles) > 1 else prefix for i, a in enumerate(angles)}
    return [(label[a], a, m, c) for a, m, c in sorted(groups)]


def _uniforms(rngs, groups, n):
    """Each generator's next ``groups`` draws of n uniforms, shape
    (len(rngs), groups, n), in one ``random(out=...)`` call per generator."""
    u = np.empty((len(rngs), groups, n))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    return u


def _sample_triangle(fan, u1, u2):
    """Uniform points in triangles by the reflection method, shape
    u1.shape + (2,).  ``fan`` gives per coordinate the vertex a and edges
    b - a and c - a (floats or arrays like u1); u1 and u2 are folded in place.
    """
    over = u1 + u2 > 1.0
    np.subtract(1.0, u1, out=u1, where=over)
    np.subtract(1.0, u2, out=u2, where=over)
    return np.stack([a + u1 * ab + u2 * ac for a, ab, ac in fan], axis=-1)


def check_size(kind: str, volume: float, surface_area: float) -> None:
    """Raise unless a ``kind`` domain's volume and surface area are finite and > 0."""
    if not (math.isfinite(volume) and math.isfinite(surface_area)):
        raise GeometryError(f"{kind} domain is too large: its volume or surface area overflows")
    if not (volume > 0 and surface_area > 0):
        raise GeometryError(f"{kind} domain is too small: its volume or surface area underflows")


class Domain:
    """Right prism: a convex base (``Polygon2D`` or ``HalfDisk``) in the x-y
    plane extruded along z in [0, height].  A subclass names its ``kind`` and
    writes its spec."""

    kind: str

    def __init__(self, base, height: float):
        if not (math.isfinite(height) and height > 0):
            raise GeometryError(f"{self.kind} height must be positive and finite")
        self.base = base
        self.height = float(height)
        try:
            sizes = (self.volume, self.surface_area)
        except OverflowError:
            sizes = (math.inf, math.inf)
        check_size(self.kind, *sizes)

    @property
    def volume(self) -> float:
        return self.base.area * self.height

    @property
    def surface_area(self) -> float:
        return 2.0 * self.base.area + self.base.perimeter * self.height

    def features(self) -> FeatureSet:
        angles = [float(a) for a in self.base.interior_angles()]
        # Cap edges: every base edge appears on both caps at a right angle.
        edges = [(0.5 * np.pi, float(length), 2) for length in self.base.edge_lengths]
        # Axial edges: one per base vertex, dihedral equal to the vertex angle.
        edges += [(ang, self.height, 1) for ang in angles]
        # Corners: every base vertex on both caps.
        corners = ((ang, 1.0, 2) for ang in angles)
        return FeatureSet(
            bulk=BoundaryFeature(codim=0, measure=self.volume, label="U"),
            face=BoundaryFeature(codim=1, measure=self.surface_area, label="F"),
            edges=tuple(
                BoundaryFeature(codim=2, measure=m, multiplicity=c, dihedral=a, label=lab)
                for lab, a, m, c in _merge(edges, "E")
            ),
            corners=tuple(
                BoundaryFeature(codim=3, measure=1.0, multiplicity=c, dihedral=a, label=lab)
                for lab, a, _, c in _merge(corners, "C")
            ),
        )

    def contains(self, points) -> np.ndarray:
        """Membership of each row of an (n, 3) point array (closed region)."""
        p = np.asarray(points, dtype=float)
        ok = (p[:, 2] >= 0.0) & (p[:, 2] <= self.height)
        return ok & self.base.contains(p[:, :2])

    def sample(self, n: int, rngs) -> np.ndarray:
        """Draw n points uniformly over the volume per generator, shape
        (len(rngs), n, 3): trial t's come from ``rngs[t]`` alone, bit for bit
        as a one-trial sampler's ``random(n)`` calls place them, and leave it
        where those would.  One trial is ``sample(n, [rng])[0]``."""
        # Per trial: the base's uniform groups, then z.
        u = _uniforms(rngs, self.base.groups + 1, n)
        return np.dstack([self.base.place(u), u[:, -1] * self.height])


class RightPrism(Domain):
    """Convex polygon in the x-y plane extruded along z in [0, height]."""

    kind = "prism"

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

    The pentagonal cross-section, its base, lives in the x-z plane and is
    extruded along y to depth L.  Sampling decomposes the region into the
    wall box (weight 4/5) and the triangular roof prism (weight 1/5); both
    parts are sampled exactly, with no rejection.
    """

    kind = "house"

    def __init__(self, L: float):
        if not (math.isfinite(L) and L > 0):
            raise GeometryError("house side length must be positive and finite")
        self.L = float(L)
        super().__init__(house_base_polygon(self.L), self.L)

    def contains(self, points):
        # The pentagon's second axis is z and the extrusion's is y.
        return super().contains(np.asarray(points, dtype=float)[:, [0, 2, 1]])

    def sample(self, n, rngs):
        L = self.L
        # Per trial: the roof flags, x, y and z, then its roof nodes' u1, u2.
        u = _uniforms(rngs, 4, n)
        in_roof = u[:, 0] < 0.2
        pts = np.empty((len(rngs), n, 3))
        np.multiply(u[:, 1:], L, out=pts.transpose(0, 2, 1))
        draws = [rng.random((2, c)) for rng, c in zip(rngs, map(np.count_nonzero, in_roof))]
        left, right, apex = np.array([[0.0, L], [L, L], [0.5 * L, 1.5 * L]])
        fan = zip(left, right - left, apex - left)
        pts[in_roof, ::2] = _sample_triangle(fan, *np.concatenate(draws, axis=1))
        return pts

    def to_spec(self) -> dict:
        return {"kind": "house", "L": self.L}


class HalfCylinder(Domain):
    """Half-cylinder: x^2 + y^2 <= r^2, y >= 0, z in [0, h], a ``HalfDisk``
    extruded.  The flat rectangular face lies in the y = 0 plane."""

    kind = "half_cylinder"

    def __init__(self, radius: float, height: float):
        if not (math.isfinite(radius) and radius > 0):
            raise GeometryError("half_cylinder radius must be positive and finite")
        super().__init__(HalfDisk(float(radius)), height)

    @property
    def radius(self) -> float:
        return self.base.radius

    def to_spec(self) -> dict:
        return {"kind": "half_cylinder", "r": self.radius, "h": self.height}


def build_house(L: float) -> House:
    return House(L)


def build_half_cylinder(r: float, h: float) -> HalfCylinder:
    return HalfCylinder(r, h)


def build_right_prism(base: Polygon2D, h: float) -> RightPrism:
    return RightPrism(base, h)


# Each kind's spec fields besides "kind"; a spec must give every one.
_DOMAIN_FIELDS = {
    "house": {"L": True},
    "half_cylinder": {"r": True, "h": True},
    "prism": {"base": True, "height": True},
}
# What a prism spec's base and each of its vertices may be: a JSON array, or
# a numpy array or tuple passed in by a library caller.
_SEQUENCES = (list, tuple, np.ndarray)


def domain_from_spec(spec: dict) -> Domain:
    """Build a domain from its specification, a dict of one of these forms::

        {"kind": "house", "L": 5.0}
        {"kind": "half_cylinder", "r": 5.0, "h": 4.0}
        {"kind": "prism", "base": [[x, y], ...], "height": h}
    """
    kind, number = read_spec(spec, "domain", "kind", _DOMAIN_FIELDS, GeometryError)
    if kind == "house":
        return build_house(number(spec["L"]))
    if kind == "half_cylinder":
        return build_half_cylinder(number(spec["r"]), number(spec["h"]))
    base = spec["base"]
    try:
        pairs = isinstance(base, _SEQUENCES) and all(
            isinstance(v, _SEQUENCES) and len(v) == 2 for v in base
        )
    except TypeError:  # a 0-d numpy array has no length
        pairs = False
    if not pairs:
        raise GeometryError("prism domain spec field base must be a list of [x, y] number pairs")
    vertices = [[number(x), number(y)] for x, y in base]
    return build_right_prism(Polygon2D(vertices), number(spec["height"]))
