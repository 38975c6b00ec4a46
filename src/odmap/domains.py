"""Target domains for approximation experiments: unit disk, unit square,
or a simple polygon, with exact boundary-distance queries."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .geometry import (_reduce_pairs, cross2, max_distance, nearest_segment_distance, seg_points_distance,
                       segments_intersect, signed_area)


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

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        """Closed containment test, vectorized over rows of pts."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 + tol
        if self.kind == "square":
            return np.all((pts >= -tol) & (pts <= 1.0 + tol), axis=1)
        return self._locate(pts, tol)[0]

    def _locate(self, pts, tol):
        """Closed containment flags of points in the polygon (winding number,
        boundary counted as inside) and their distances to its boundary, each
        found once per distinct point (a map's quad corners repeat 4 times)."""
        z, at = np.unique(np.ascontiguousarray(pts).view(complex).ravel(), return_inverse=True)
        p, a, b = z.view(float).reshape(-1, 2), self.polygon, np.roll(self.polygon, -1, axis=0)

        def crossings(i, j):  # +1 up across the ray right of the point, -1 down
            y, cr = p[i, None, 1], cross2(b[j] - a[j], p[i, None] - a[j])
            return ((a[j, 1] <= y) & (b[j, 1] > y) & (cr > 0)).astype(int) - ((a[j, 1] > y) & (b[j, 1] <= y) & (cr < 0))

        dist = nearest_segment_distance(a, b, p)
        return ((dist <= tol) | (_reduce_pairs(crossings, len(p), len(a), np.add, 0) != 0))[at], dist[at]

    def dist_to_boundary(self, pts) -> np.ndarray:
        """Unsigned distance to the domain boundary, vectorized."""
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.kind == "disk":
            return np.abs(1.0 - np.hypot(pts[:, 0], pts[:, 1]))
        z, at = np.unique(np.ascontiguousarray(pts).view(complex).ravel(), return_inverse=True)  # each point once
        a, b = self.polygon, np.roll(self.polygon, -1, axis=0)
        return nearest_segment_distance(a, b, z.view(float).reshape(-1, 2))[at]

    def face_distance(self, quad: np.ndarray):
        """dist(Q, boundary) for quads whose closures lie inside the domain,
        broadcast over any leading axes ((m, 4, 2) quads give m distances)."""
        quad = np.asarray(quad, float)
        if self.kind == "disk":
            dist = 1.0 - np.hypot(quad[..., 0], quad[..., 1]).max(-1)
        else:
            # 0 where a quad side meets a polygon edge, else the least distance
            # from a quad corner to an edge or from a polygon vertex to a side
            q = quad.reshape(-1, 4, 2)
            corner = self.dist_to_boundary(q.reshape(-1, 2)).reshape(-1, 4).min(1)
            a, c, d = self.polygon, q.reshape(-1, 2), np.roll(q, -1, axis=1).reshape(-1, 2)
            dist = np.minimum(corner, _reduce_pairs(lambda i, j: seg_points_distance(c[i, None], d[i, None], a[j]),
                                                    len(c), len(a), np.minimum, np.inf).reshape(-1, 4).min(1))
            dist[self._meets(q, corner, include_endpoints=True)] = 0.0
            dist = dist.reshape(quad.shape[:-2])
        return float(dist) if quad.ndim == 2 else dist

    def face_inside(self, quad: np.ndarray, tol: float = 1e-12):
        """Whether the closed quad is contained in the closed domain, broadcast
        over any leading axes ((m, 4, 2) quads give m flags)."""
        quad = np.asarray(quad, float)
        q = quad.reshape(-1, 4, 2)
        if self.kind == "polygon":  # not convex: corner containment does not suffice
            inside, dist = (v.reshape(-1, 4) for v in self._locate(q.reshape(-1, 2), tol))
            inside = inside.all(1)
            inside[self._meets(q, np.where(inside, dist.min(1), np.inf), include_endpoints=False)] = False
        else:
            inside = self.contains(q.reshape(-1, 2), tol).reshape(-1, 4).all(1)
        return bool(inside[0]) if quad.ndim == 2 else inside.reshape(quad.shape[:-2])

    def _meets(self, q: np.ndarray, corner: np.ndarray, include_endpoints: bool) -> np.ndarray:
        """Indices of the (m, 4, 2) quads with a side that meets a polygon edge.
        Such a side has both ends within its length of the boundary, so only
        quads with a ``corner`` distance that small (plus 1e-9 of the
        coordinates' size, for rounding) are tested."""
        a, b = self.polygon, np.roll(self.polygon, -1, axis=0)
        reach = np.hypot(*np.moveaxis(np.roll(q, -1, axis=1) - q, -1, 0)).max(1)
        near = np.flatnonzero(corner <= reach + 1e-9 * np.maximum(np.abs(q).max((1, 2)), np.abs(a).max()))
        c, d = q[near].reshape(-1, 2), np.roll(q[near], -1, axis=1).reshape(-1, 2)
        hit = _reduce_pairs(lambda i, j: segments_intersect(a[j], b[j], c[i, None], d[i, None], include_endpoints),
                            len(c), len(a), np.logical_or, False)
        return near[hit.reshape(-1, 4).any(1)]

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
        d = np.roll(p, -1, axis=0) - p
        lengths = np.hypot(d[:, 0], d[:, 1])
        k = np.maximum(1, np.round(m * lengths / lengths.sum()).astype(int))
        t = (np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)) / np.repeat(k, k)  # j / k on each edge
        return np.repeat(p, k, axis=0) + t[:, None] * np.repeat(d, k, axis=0)

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
