"""Target domains for approximation experiments: unit disk, unit square,
or a simple polygon, with exact boundary-distance queries."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .geometry import (
    max_distance,
    nearest_segment_distance,
    seg_points_distance,
    segments_intersect,
    signed_area,
)


@dataclass
class DomainSpec:
    """Bounded simply connected target domain.

    kind is one of "disk" (unit disk about the origin), "square" (the unit
    square [0,1]^2) or "polygon" (simple CCW vertex list).
    """

    kind: str
    polygon: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.kind not in ("disk", "square", "polygon"):
            raise GeometryError(f"unknown domain kind {self.kind!r}")
        if self.kind == "polygon":
            if self.polygon is None:
                raise GeometryError("polygon domain needs a vertex list")
            self.polygon = np.asarray(self.polygon, float).reshape(-1, 2)
            if len(self.polygon) < 3:
                raise GeometryError("polygon needs at least 3 vertices")
            if not np.isfinite(self.polygon).all():
                raise GeometryError("polygon corners must be finite")
            area = signed_area(self.polygon)
            if abs(area) <= 1e-14 * np.ptp(self.polygon, axis=0).max() ** 2:  # collinear to rounding
                raise GeometryError("polygon has zero area")
            if area < 0:
                self.polygon = self.polygon[::-1].copy()
        elif self.kind == "square":
            self.polygon = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    # -- queries -------------------------------------------------------------

    def boundary_segments(self):
        if self.kind == "disk":
            return None
        p = self.polygon
        return [(p[i], p[(i + 1) % len(p)]) for i in range(len(p))]

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        """Closed containment test, vectorized over rows of pts."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 + tol
        if self.kind == "square":
            return np.all((pts >= -tol) & (pts <= 1.0 + tol), axis=1)
        # winding-number point-in-polygon, boundary counted as inside; one
        # pass per polygon edge over all the points
        x, y = pts.T
        on_boundary = np.zeros(len(pts), bool)
        wn = np.zeros(len(pts), int)
        for a, b in self.boundary_segments():
            on_boundary |= seg_points_distance(a, b, pts) <= tol
            cr = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
            up = a[1] <= y
            wn += (up & (b[1] > y) & (cr > 0)).astype(int) - (~up & (b[1] <= y) & (cr < 0))
        return on_boundary | (wn != 0)

    def dist_to_boundary(self, pts) -> np.ndarray:
        """Unsigned distance to the domain boundary, vectorized."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.kind == "disk":
            return np.abs(1.0 - np.hypot(pts[:, 0], pts[:, 1]))
        return nearest_segment_distance(self.polygon, np.roll(self.polygon, -1, axis=0), pts)

    def face_distance(self, quad: np.ndarray):
        """dist(Q, boundary) for quads whose closures lie inside the domain,
        broadcast over any leading axes ((m, 4, 2) quads give m distances)."""
        quad = np.asarray(quad, float)
        if self.kind == "disk":
            dist = 1.0 - np.hypot(quad[..., 0], quad[..., 1]).max(-1)
        else:
            # polygon edges ab x quads x quad sides cd: 0 where they meet, else
            # the least distance from an end of one to the other
            a = self.polygon[:, None, :]
            b = np.roll(a, -1, axis=0)
            c = quad.reshape(-1, 4, 2)[:, None]
            d = np.roll(c, -1, axis=2)
            apart = np.minimum(np.minimum(seg_points_distance(a, b, c), seg_points_distance(a, b, d)),
                               np.minimum(seg_points_distance(c, d, a), seg_points_distance(c, d, b)))
            apart[segments_intersect(a, b, c, d)] = 0.0
            dist = apart.min(axis=(1, 2)).reshape(quad.shape[:-2])
        return float(dist) if quad.ndim == 2 else dist

    def face_inside(self, quad: np.ndarray, tol: float = 1e-12):
        """Whether the closed quad is contained in the closed domain, broadcast
        over any leading axes ((m, 4, 2) quads give m flags)."""
        quad = np.asarray(quad, float)
        inside = self.contains(quad.reshape(-1, 2), tol).reshape(-1, 4).all(1)
        if self.kind == "polygon":  # not convex: corner containment does not suffice
            # one test over the quads x polygon edges x quad sides
            p = self.polygon[:, None, :]
            q = quad.reshape(-1, 4, 2)[inside][:, None]
            inside[inside] = ~segments_intersect(p, np.roll(p, -1, axis=0), q, np.roll(q, -1, axis=2),
                                                 include_endpoints=False).any(axis=(1, 2))
        return bool(inside[0]) if quad.ndim == 2 else inside.reshape(quad.shape[:-2])

    def perimeter(self) -> float:
        if self.kind == "disk":
            return 2.0 * np.pi
        p = self.polygon
        return float(np.hypot(*(np.roll(p, -1, axis=0) - p).T).sum())

    def diam(self) -> float:
        if self.kind == "disk":
            return 2.0
        return max_distance(self.polygon)

    def boundary_samples(self, m: int) -> np.ndarray:
        if self.kind == "disk":
            t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            return np.column_stack([np.cos(t), np.sin(t)])
        p = self.polygon
        lengths = np.hypot(*(np.roll(p, -1, axis=0) - p).T)
        total = lengths.sum()
        out = []
        for i, (a, b) in enumerate(self.boundary_segments()):
            k = max(1, int(round(m * lengths[i] / total)))
            t = np.arange(k) / k
            out.append(a + t[:, None] * (np.asarray(b) - np.asarray(a)))
        return np.vstack(out)

    def bounding_box(self):
        if self.kind == "disk":
            return np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        return self.polygon.min(axis=0), self.polygon.max(axis=0)


def unit_disk() -> DomainSpec:
    return DomainSpec("disk")


def unit_square() -> DomainSpec:
    return DomainSpec("square")


def hausdorff_delta(omap, domain: DomainSpec, samples: int = 1000) -> float:
    """Two-sided sampled Hausdorff distance between the map boundary and
    the domain boundary.

    The map boundary is exact (points tested against its segments); the
    domain side is sampled, so the result can underestimate by at most
    perimeter / samples.
    """
    if samples < 100:
        raise GeometryError("need at least 100 samples")
    pos = omap.positions
    walk = omap.boundary_walk
    a, b = pos[walk], pos[np.roll(walk, -1)]

    # domain boundary -> map boundary
    d1 = nearest_segment_distance(a, b, domain.boundary_samples(samples))

    # map boundary (densified) -> domain boundary (exact): on each segment,
    # k equally spaced points from a to b as np.linspace spaces them
    step = domain.perimeter() / samples
    k = np.maximum(2, np.ceil(np.hypot(*(b - a).T) / step).astype(int) + 1)
    ends = np.cumsum(k)
    seg = np.repeat(np.arange(len(k)), k)
    t = (np.arange(ends[-1]) - (ends - k)[seg]) * (1.0 / (k - 1))[seg]
    t[ends - 1] = 1.0
    d2 = domain.dist_to_boundary(a[seg] + t[:, None] * (b - a)[seg])

    return float(max(d1.max(), d2.max()))
