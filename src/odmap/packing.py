"""Circle packings of triangulations in the unit disk, double circle packings
of 3-connected planar maps, and the orthodiagonal meshes they induce.

The in-disk packer runs an angle-sum radius iteration in the hyperbolic
metric of the disk: interior radii are parametrized by x = exp(-2h) in (0,1),
boundary circles are horocycles (x = 0), and the angle at circle p inside a
tangent triple (p, a, b) is

    alpha = 2 asin sqrt( x_p (1-x_a)(1-x_b) / ((1-x_p x_a)(1-x_p x_b)) ).

Uniform-neighbor sweeps give global progress; a sparse Newton polish drives
the angle-sum residuals to ~1e-12 so the laid-out tangency residuals are far
below requested tolerances.  The layout places Euclidean circles directly in
the disk model (horocycles are ordinary circles internally tangent to the
unit circle), tracking hyperbolic centers / ideal points so every placement
is a closed form plus the occasional 1-d root find for all-boundary faces.

Double packings are solved in Euclidean terms on the vertex-face incidence
structure: the tangency point of two vertex circles is also the tangency
point of the two face circles and the circles meet orthogonally there, so
each incidence (w, f) contributes the right-triangle angle 2 atan(r_f / r_w)
to the flower of w, with the outer circle entering at fixed radius 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree

from .core_map import OrthodiagonalMap, _biconnected_components, face_sides
from .errors import PackingError, StructuralError
from .geometry import incircle, segments_intersect, signed_area
from .network import edge_graph

# ---------------------------------------------------------------------------
# combinatorial triangulations with boundary


@dataclass
class Triangulation:
    """Finite simple triangulation with boundary, given by CCW faces.

    Positions are optional seed geometry (e.g. from Delaunay); the packer
    only uses the combinatorics.
    """

    n_vertices: int
    faces: np.ndarray  # (m, 3) CCW
    positions: np.ndarray | None = None

    def __post_init__(self):
        self.faces = np.asarray(self.faces, int).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= self.n_vertices):
            raise StructuralError("face refers to an unknown vertex")

    @cached_property
    def _sides(self):
        """:func:`~odmap.core_map.face_sides` of the faces and the number of
        sides on each edge, checked: no edge borders more than two faces, and
        no directed side occurs twice (the faces are consistently oriented)."""
        edges, side_edge = face_sides(self.faces)
        ids = side_edge.ravel()
        count = np.bincount(ids, minlength=len(edges))
        over = count[ids] > 2
        if over.any():
            e = ids[np.argmax(over)]
            raise StructuralError(f"edge {tuple(edges[e].tolist())} borders {count[e]} faces")
        ends = np.roll(self.faces, -1, axis=1).ravel()
        _, first = np.unique(2 * ids + (self.faces.ravel() > ends), return_index=True)
        if first.size < ids.size:
            k = np.setdiff1d(np.arange(ids.size), first)[0]  # the first repeat
            raise StructuralError(f"directed edge {(int(self.faces.flat[k]), int(ends[k]))} "
                                  "used twice; orientation inconsistent")
        return edges, side_edge, count

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected edges (e, 2), each row sorted, lexicographically ordered."""
        return self._sides[0]

    @cached_property
    def graph(self) -> sp.csr_matrix:
        """Vertex adjacency in the sparse form scipy.sparse.csgraph takes."""
        f = self.faces
        return edge_graph(self.n_vertices, f.ravel(), f[:, [1, 2, 0]].ravel())

    @cached_property
    def boundary_cycle(self) -> list:
        """Boundary vertices in CCW order (the sides no other face shares)."""
        _, side_edge, count = self._sides
        lone = count[side_edge] == 1
        a, b = self.faces[lone], np.roll(self.faces, -1, axis=1)[lone]
        if np.unique(b).size < b.size:
            raise StructuralError("boundary is not a simple cycle")
        if not b.size:
            raise StructuralError("triangulation has no boundary")
        # a lone side a -> b runs clockwise around the outside, so following
        # the sides backwards (every vertex has one successor) walks CCW
        cyc = csgraph.depth_first_order(edge_graph(self.n_vertices, b, a), b.min(),
                                        return_predecessors=False)
        if cyc.size != b.size:
            raise StructuralError("boundary has more than one cycle")
        return cyc.tolist()

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, bool)
        mask[self.boundary_cycle] = True
        return mask

    @cached_property
    def flowers(self) -> list:
        """Neighbors of each vertex in CCW order (cyclic iff interior)."""
        succ: list = [dict() for _ in range(self.n_vertices)]
        for a, b, c in self.faces:
            succ[a][int(b)] = int(c)
            succ[b][int(c)] = int(a)
            succ[c][int(a)] = int(b)
        flowers = []
        for v in range(self.n_vertices):
            s = succ[v]
            if not s:
                raise StructuralError(f"vertex {v} lies on no face")
            if self.boundary_mask[v]:
                starts = set(s) - set(s.values())
                if len(starts) != 1:
                    raise StructuralError(f"boundary fan at vertex {v} is broken")
                cur = starts.pop()
            else:
                cur = next(iter(s))
            fl = [cur]
            while True:
                cur = s.get(cur)
                if cur is None or cur == fl[0]:
                    break
                fl.append(cur)
                if len(fl) > len(s) + 1:
                    raise StructuralError(f"flower at vertex {v} does not close")
            flowers.append(fl)
        return flowers

    def validate(self):
        """Raise StructuralError when not a simple triangulation with boundary."""
        corners = np.sort(self.faces, axis=1)
        repeats = np.flatnonzero(np.any(corners[:, 1:] == corners[:, :-1], axis=1))
        if repeats.size:
            raise StructuralError(f"face {repeats[0]} repeats a vertex")
        _ = self.boundary_cycle  # after the incidence and orientation checks
        _ = self.flowers
        if csgraph.connected_components(self.graph, directed=False, return_labels=False) != 1:
            raise StructuralError("triangulation is not connected")
        return self


def triangulation_from_points(points: np.ndarray) -> Triangulation:
    """Delaunay triangulation of a planar point set (faces oriented CCW)."""
    from scipy.spatial import Delaunay

    points = np.asarray(points, float)
    tri = Delaunay(points)
    faces = tri.simplices.copy()
    cw = signed_area(points[faces]) < 0
    faces[cw] = faces[cw, ::-1]
    return Triangulation(len(points), faces, positions=points).validate()


# ---------------------------------------------------------------------------
# hyperbolic radius iteration


def _angles(xp, xa, xb):
    """Angle at circle p inside tangent triples (p, a, b); vectorized."""
    num = xp * (1.0 - xa) * (1.0 - xb)
    den = (1.0 - xp * xa) * (1.0 - xp * xb)
    g = np.clip(num / den, 0.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(g))


def _angle_sum_and_jac(x, fan_v, fan_a, fan_b, interior, want_jac):
    """Angle sums at the interior vertices and (optionally) the sparse
    Jacobian with respect to x restricted to interior columns."""
    xa = x[fan_a]
    xb = x[fan_b]
    xp = x[fan_v]
    theta = np.zeros(len(x))
    vals = _angles(xp, xa, xb)
    np.add.at(theta, fan_v, vals)
    if not want_jac:
        return theta, None

    num = xp * (1.0 - xa) * (1.0 - xb)
    den = (1.0 - xp * xa) * (1.0 - xp * xb)
    g = np.clip(num / den, 1e-300, 1.0 - 1e-15)
    pref = 1.0 / np.sqrt(g * (1.0 - g))  # d(2 asin sqrt g)/dg

    dg_dxp = g * (1.0 / xp + xa / (1.0 - xp * xa) + xb / (1.0 - xp * xb))
    rows, cols, data = [], [], []
    rows.append(fan_v); cols.append(fan_v); data.append(pref * dg_dxp)
    for nb in (fan_a, fan_b):
        xn = x[nb]
        dg_dxn = g * (-1.0 / np.clip(1.0 - xn, 1e-300, None) + xp / (1.0 - xp * xn))
        rows.append(fan_v); cols.append(nb); data.append(pref * dg_dxn)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    keep = interior[cols]
    n = len(x)
    J = sp.csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n))
    return theta, J


def _solve_hyperbolic_radii(tri: Triangulation, angle_tol: float, max_iter: int,
                            damping: float) -> np.ndarray:
    """x-parameters with angle sum 2 pi at every interior vertex."""
    n = tri.n_vertices
    boundary = tri.boundary_mask
    interior = ~boundary
    x = np.where(boundary, 0.0, 0.5)
    if not interior.any():
        return x

    fan_v, fan_a, fan_b = [], [], []
    for v in np.flatnonzero(interior):
        fl = tri.flowers[v]
        k = len(fl)
        for i in range(k):
            fan_v.append(v)
            fan_a.append(fl[i])
            fan_b.append(fl[(i + 1) % k])
    fan_v = np.array(fan_v, int)
    fan_a = np.array(fan_a, int)
    fan_b = np.array(fan_b, int)
    deg = np.zeros(n, int)
    np.add.at(deg, fan_v, 1)

    int_idx = np.flatnonzero(interior)
    target = 2.0 * np.pi

    def sweep(x):
        theta, _ = _angle_sum_and_jac(x, fan_v, fan_a, fan_b, interior, False)
        k = deg[int_idx]
        th = theta[int_idx]
        beta = np.sin(th / (2 * k))
        delta = np.sin(np.pi / k)
        sx = np.sqrt(x[int_idx])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xt = (sx - beta) / np.clip(sx - beta * x[int_idx], 1e-300, None)
            disc = (1.0 - xt) ** 2 + 4.0 * delta**2 * xt
            s_new = (-(1.0 - xt) + np.sqrt(np.clip(disc, 0.0, None))) / (2.0 * delta * np.clip(xt, 1e-300, None))
            cand = s_new**2
        bad = ~np.isfinite(cand) | (cand <= 0.0) | (cand >= 1.0) | (xt <= 0.0) | (xt >= 1.0)
        fallback = x[int_idx] ** (th / target)
        cand[bad] = fallback[bad]
        new = x.copy()
        new[int_idx] = np.clip(x[int_idx] + damping * (cand - x[int_idx]), 1e-15, 1.0 - 1e-15)
        return new, float(np.abs(th - target).max())

    err = np.inf
    it = 0
    newton_ready = False
    while it < max_iter:
        x, err = sweep(x)
        it += 1
        if err < 1e-4:
            newton_ready = True
            break
        if err < angle_tol:
            return x
    if not newton_ready and err >= angle_tol:
        raise PackingError(f"radius iteration stalled after {it} sweeps (residual {err:.3e})")

    # Newton polish in u = log x
    for _ in range(80):
        theta, J = _angle_sum_and_jac(x, fan_v, fan_a, fan_b, interior, True)
        F = theta[int_idx] - target
        err = float(np.abs(F).max())
        if err < angle_tol:
            return x
        Jr = J[int_idx][:, int_idx].tocsc()
        # d theta / du = d theta / dx * x
        Jr = Jr.multiply(x[int_idx][None, :]).tocsc()
        try:
            du = spsolve(Jr, -F)
        except Exception as exc:  # singular Jacobian
            raise PackingError(f"Newton step failed: {exc}") from exc
        du = np.clip(du, -2.0, 2.0)
        x[int_idx] = np.clip(x[int_idx] * np.exp(du), 1e-15, 1.0 - 1e-15)
    theta, _ = _angle_sum_and_jac(x, fan_v, fan_a, fan_b, interior, False)
    err = float(np.abs(theta[int_idx] - target).max())
    if err >= angle_tol:
        raise PackingError(f"Newton polish stalled (angle residual {err:.3e})")
    return x


# ---------------------------------------------------------------------------
# layout in the disk model


def _t_of_x(x):
    s = np.sqrt(x)
    return (1.0 - s) / (1.0 + s)


def _euclid_from_hyp(z: complex, x: float):
    t = _t_of_x(x)
    s2 = abs(z) ** 2
    den = 1.0 - s2 * t * t
    return z * (1.0 - t * t) / den, t * (1.0 - s2) / den


def _horo_from_tangency(zeta: complex, c_p: complex, rho_p: float):
    """Horocycle at ideal point zeta externally tangent to circle (c_p, rho_p)."""
    beta = (zeta.conjugate() * c_p).real
    rho = (1.0 - 2.0 * beta + abs(c_p) ** 2 - rho_p**2) / (2.0 * (1.0 + rho_p - beta))
    return (1.0 - rho) * zeta, rho


def _mobius(a: complex, w: complex) -> complex:
    return (w - a) / (1.0 - a.conjugate() * w)


def _mobius_inv(a: complex, w: complex) -> complex:
    return (w + a) / (1.0 + a.conjugate() * w)


def _mobius_circle(a: complex, c: complex, rho: float):
    """Image of a circle under the disk automorphism w -> (w-a)/(1-conj(a)w)."""
    if a == 0:
        return c, rho
    pole = 1.0 / a.conjugate()
    zsym = c + rho**2 / (pole - c).conjugate()
    c2 = _mobius(a, zsym)
    w = c + rho * (c - pole) / abs(c - pole)
    return c2, abs(_mobius(a, w) - c2)


def _hyp_radius(c: complex, rho: float) -> float:
    hi = min(abs(c) + rho, 1.0 - 1e-16)
    lo = abs(c) - rho
    return float(np.arctanh(hi) - np.arctanh(lo))


def _hyp_center(c: complex, rho: float) -> complex:
    d = abs(c)
    if d == 0:
        return 0j
    m = np.tanh(0.5 * (np.arctanh(min(d + rho, 1 - 1e-16)) + np.arctanh(d - rho)))
    return (c / d) * m


@dataclass
class CirclePacking:
    centers: np.ndarray  # (n, 2)
    radii: np.ndarray
    boundary_mask: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def max_radius(self) -> float:
        return float(self.radii.max())

    @property
    def max_boundary_radius(self) -> float:
        return float(self.radii[self.boundary_mask].max())

    def to_json_dict(self) -> dict:
        return {
            "format": "odpack/1",
            "circles": [
                {"id": int(i), "x": float(c[0]), "y": float(c[1]), "r": float(r),
                 "boundary": bool(b)}
                for i, (c, r, b) in enumerate(zip(self.centers, self.radii, self.boundary_mask))
            ],
        }


def _place_interior_from_two(c1, r1, c2, r2, h_target, orient_sign):
    """Circle of prescribed hyperbolic radius tangent to two placed circles."""

    def center_at(rho):
        d = abs(c2 - c1)
        ra, rb = r1 + rho, r2 + rho
        aa = (d * d + ra * ra - rb * rb) / (2 * d)
        h2 = ra * ra - aa * aa
        if h2 < 0:
            return None
        u = (c2 - c1) / d
        return c1 + aa * u + orient_sign * 1j * np.sqrt(h2) * u

    def g(rho):
        c = center_at(rho)
        if c is None or abs(c) + rho >= 1.0:
            return np.inf
        return _hyp_radius(c, rho) - h_target

    lo = 1e-14
    if g(lo) > 0:
        raise PackingError("cannot bracket interior placement")
    hi = lo
    for _ in range(200):
        hi = min(hi * 2.0, 2.0)
        val = g(hi)
        if val == np.inf:
            # shrink back under the disk boundary
            for _ in range(200):
                hi *= 0.95
                val = g(hi)
                if val != np.inf:
                    break
            if val < 0:
                raise PackingError("interior placement does not fit in the disk")
            break
        if val > 0:
            break
    else:
        raise PackingError("cannot bracket interior placement")
    rho = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16)
    return center_at(rho), rho


def _place_horo_from_two(c1, r1, c2, r2, orient_sign):
    """Horocycle tangent to two placed circles, chosen by orientation."""

    def candidate(theta):
        zeta = np.exp(1j * theta)
        c, rho = _horo_from_tangency(zeta, c1, r1)
        return c, rho

    def g(theta):
        c, rho = candidate(theta)
        if rho <= 0:
            return np.nan
        return abs(c - c2) - (rho + r2)

    thetas = np.linspace(0, 2 * np.pi, 1441)
    vals = np.array([g(t) for t in thetas])
    roots = []
    for i in range(len(thetas) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            roots.append(thetas[i])
        elif a * b < 0:
            roots.append(brentq(g, thetas[i], thetas[i + 1], xtol=1e-15, rtol=8.9e-16))
    for th in roots:
        c, rho = candidate(th)
        if orient_sign * ((c2 - c1).conjugate() * (c - c1)).imag > 0:
            return c, rho
    if roots:  # orientation degenerate (collinear): take the best root
        c, rho = candidate(roots[0])
        return c, rho
    raise PackingError("no horocycle satisfies both tangencies")


def pack_in_disk(tri: Triangulation, tol: float = 1e-8, max_iter: int = 100_000,
                 damping: float = 0.5) -> CirclePacking:
    """Maximal circle packing of a triangulation in the unit disk.

    Boundary circles come out internally tangent to the unit circle; when an
    interior vertex exists, the most central one is centered at the origin.
    Raises PackingError when residuals exceed tol.
    """
    tri.validate()
    n = tri.n_vertices
    boundary = tri.boundary_mask
    angle_tol = max(min(1e-12, 0.01 * tol), 1e-14)
    x = _solve_hyperbolic_radii(tri, angle_tol, max_iter, damping)
    h_rad = np.where(boundary, np.inf, -0.5 * np.log(np.clip(x, 1e-300, None)))

    centers = np.full(n, np.nan + 0j, complex)
    radii = np.full(n, np.nan)
    anchors = np.full(n, np.nan + 0j, complex)  # hyp center or ideal point
    placed = np.zeros(n, bool)

    def place(v, c, rho, anchor):
        centers[v] = c
        radii[v] = rho
        anchors[v] = anchor
        placed[v] = True

    interior_idx = np.flatnonzero(~boundary)
    if interior_idx.size:
        # seed: interior vertex furthest from the boundary (graph distance)
        dist = csgraph.dijkstra(tri.graph, directed=False, indices=np.flatnonzero(boundary),
                                unweighted=True, min_only=True)
        seed = int(interior_idx[np.argmax(dist[interior_idx])])
        place(seed, 0j, _t_of_x(x[seed]), 0j)
        # first neighbor along the positive real axis
        q = tri.flowers[seed][0]
        if boundary[q]:
            rho = (1.0 - radii[seed]) / 2.0
            place(q, complex(1.0 - rho), rho, 1 + 0j)
        else:
            z = complex(_t_of_x(x[seed] * x[q]))
            c, rho = _euclid_from_hyp(z, x[q])
            place(q, c, rho, z)
    else:
        a, b, c = (int(v) for v in tri.faces[0])
        place(a, complex(-0.5), 0.5, -1 + 0j)
        place(b, complex(0.5), 0.5, 1 + 0j)
        cc, rr = _horo_from_tangency(1j, complex(-0.5), 0.5)
        place(c, cc, rr, 1j)

    # layout over faces: always prefer placements that pivot on a placed
    # interior circle (closed form); fall back to tangency root-finds only
    # when a face has no such pivot (all-boundary corners)

    def place_via_pivot(f, r_new, p, q):
        order = list(f)
        sign = +1 if order[(order.index(p) + 1) % 3] == q else -1
        alpha = float(_angles(x[p], x[q], x[r_new]))
        dq = _mobius(anchors[p], anchors[q])
        dq /= abs(dq)
        # CCW face (p, q, r): r sits CCW of q around p
        dr = dq * np.exp(1j * sign * alpha)
        if boundary[r_new]:
            zeta = _mobius_inv(anchors[p], dr)
            zeta /= abs(zeta)
            c, rho = _horo_from_tangency(zeta, centers[p], radii[p])
            place(int(r_new), c, rho, zeta)
        else:
            z = _mobius_inv(anchors[p], _t_of_x(x[p] * x[r_new]) * dr)
            c, rho = _euclid_from_hyp(z, x[r_new])
            place(int(r_new), c, rho, z)

    def place_via_tangency(f, r_new, p, q):
        order = list(f)
        sign = +1 if order[(order.index(p) + 1) % 3] == q else -1
        if boundary[r_new]:
            c, rho = _place_horo_from_two(centers[p], radii[p], centers[q],
                                          radii[q], sign)
            place(int(r_new), c, rho, c / abs(c))
        else:
            c, rho = _place_interior_from_two(centers[p], radii[p], centers[q],
                                              radii[q], h_rad[r_new], sign)
            place(int(r_new), c, rho, _hyp_center(c, rho))

    while not placed.all():
        progress = False
        deferred = []
        for f in tri.faces:
            got = placed[f]
            if got.sum() != 2:
                continue
            (r_new,) = f[~got]
            pivots = [int(v) for v in f[got] if not boundary[v]]
            if pivots:
                p = pivots[0]
                q = int([v for v in f[got] if v != p][0])
                place_via_pivot(f, int(r_new), p, q)
                progress = True
            else:
                deferred.append((f, int(r_new)))
        if progress:
            continue
        if deferred:
            f, r_new = deferred[0]
            p, q = (int(v) for v in f[placed[f]])
            place_via_tangency(f, r_new, p, q)
            continue
        raise PackingError(f"layout stalled with {int((~placed).sum())} circles left")

    if not interior_idx.size:
        # recenter on the incircle of the first face's tangency points
        a, b, c = (int(v) for v in tri.faces[0])
        pts = []
        for u, v in ((a, b), (b, c), (c, a)):
            d = centers[v] - centers[u]
            pts.append(centers[u] + radii[u] * d / abs(d))
        from .geometry import circumcircle

        cc, rr = circumcircle((pts[0].real, pts[0].imag), (pts[1].real, pts[1].imag),
                              (pts[2].real, pts[2].imag))
        amob = _hyp_center(complex(cc[0], cc[1]), rr)
        for v in range(n):
            centers[v], radii[v] = _mobius_circle(amob, centers[v], radii[v])

    packing = CirclePacking(
        centers=np.column_stack([centers.real, centers.imag]),
        radii=radii.copy(),
        boundary_mask=boundary.copy(),
    )
    packing.residuals = _packing_residuals(tri, packing)
    # report which disk-approximation normalization hypothesis holds: a
    # circle centered at the origin, or at least one center well inside
    dist0 = np.hypot(packing.centers[:, 0], packing.centers[:, 1])
    delta2 = 2.0 * packing.max_boundary_radius
    packing.residuals["centered_circle"] = bool(dist0.min() <= 1e-9)
    packing.residuals["center_in_small_disk"] = bool((dist0 < 1.0 - delta2).any())
    worst = max(packing.residuals["max_tangency"], packing.residuals["max_boundary"])
    if worst > tol * max(1.0, packing.max_radius):
        raise PackingError(f"packing residual {worst:.3e} exceeds tolerance {tol:.1e}")
    return packing


def _packing_residuals(tri: Triangulation, p: CirclePacking) -> dict:
    c = p.centers
    r = p.radii
    n = len(r)

    def separation(i, j):
        return np.hypot(*(c[i] - c[j]).T) - (r[i] + r[j])

    a, b = tri.edges.T
    tang = np.abs(separation(a, b)).max(initial=0.0)
    rim = np.flatnonzero(p.boundary_mask)
    bound = np.abs(np.hypot(*c[rim].T) + r[rim] - 1.0).max(initial=0.0)
    inside = float((np.hypot(c[:, 0], c[:, 1]) + r).max() - 1.0)
    # non-adjacent overlap (most negative separation): circles i, j overlap
    # only if |c_i - c_j| < 2 max(r_i, r_j), so a ball of radius 2 r_i around
    # each center holds every overlap partner of the larger circle
    near = cKDTree(c).query_ball_point(c, 2.0 * r)
    i = np.repeat(np.arange(n), [len(js) for js in near])
    j = np.fromiter(chain.from_iterable(near), int, len(i))
    pair = np.minimum(i, j) * n + np.maximum(i, j)
    keep = (i != j) & ~np.isin(pair, a * n + b)
    overlap = min(float(separation(i[keep], j[keep]).min(initial=0.0)), 0.0)
    return {
        "max_tangency": float(tang),
        "max_boundary": float(bound),
        "protrusion": max(inside, 0.0),
        "worst_overlap": overlap,
    }


# ---------------------------------------------------------------------------
# packing -> orthodiagonal map


def orthodiagonal_from_packing(tri: Triangulation, packing: CirclePacking,
                               eta: float | None = None) -> OrthodiagonalMap:
    """Orthodiagonal representation induced by an in-disk packing.

    Primal vertices sit at circle centers, dual vertices at the inscribed
    circle centers of the triangles plus one extension point per boundary
    edge, pushed a distance eta past the shared tangency point.
    """
    c = packing.centers
    r = packing.radii
    n = tri.n_vertices
    m = len(tri.faces)

    inc_centers, _ = incircle(*c[tri.faces].transpose(1, 0, 2))

    # boundary edge k joins a[k] to b[k] = a[k + 1] along the boundary cycle;
    # its triangle holds the lone side that runs from b[k] to a[k]
    a = np.array(tri.boundary_cycle)
    b = np.roll(a, -1)
    _, side_edge, count = tri._sides
    lone = np.flatnonzero(count[side_edge].ravel() == 1)
    side_at = np.zeros(n, int)
    side_at[np.roll(tri.faces, -1, axis=1).ravel()[lone]] = lone
    bface, bedge = side_at[a] // 3, side_edge.ravel()[side_at[a]]

    # extension points: eta past each tangency point q, away from the
    # incenter, halved while the quads of consecutive boundary edges cross
    d = c[b] - c[a]
    q = c[a] + r[a, None] * d / np.hypot(*d.T)[:, None]
    u = q - inc_centers[bface]
    u = u / np.hypot(*u.T)[:, None]
    etas = 0.5 * np.minimum(np.minimum(r[a], r[b]), np.maximum(1.0 - np.hypot(*q.T), 1e-12))
    if eta is not None:
        etas = np.minimum(eta, etas)
    nxt = np.roll(np.arange(len(a)), -1)
    for _ in range(12):
        ext = q + etas[:, None] * u
        if not any(segments_intersect(*seg, include_endpoints=False)
                   for i, j in zip(range(len(a)), nxt)
                   for seg in ((c[a[i]], ext[i], c[a[j]], ext[j]),
                               (c[a[i]], ext[i], ext[j], c[b[j]]),
                               (ext[i], c[b[i]], ext[j], c[b[j]]))):
            break
        warnings.warn("boundary extension overlaps; shrinking eta")
        etas = 0.5 * etas
    positions = np.vstack([c, inc_centers, q + etas[:, None] * u])
    primal = np.zeros(len(positions), bool)
    primal[:n] = True

    # one quad per edge: its two triangles' incenters, or its one triangle's
    # incenter and its extension point
    edges, edge_faces = _edge_faces(tri)
    fourth = n + edge_faces[:, 1]
    fourth[bedge] = n + m + np.arange(len(a))
    faces = np.column_stack([edges[:, 0], n + edge_faces[:, 0], edges[:, 1], fourth])
    cw = signed_area(positions[faces]) < 0
    faces[cw] = faces[cw][:, [0, 3, 2, 1]]
    return OrthodiagonalMap(positions, primal, faces)


def _edge_faces(tri: Triangulation):
    """Edges (e, 2) and the faces on each (e, 2), lower index first; -1 in
    the second column of an edge that borders one face."""
    edges, side_edge, count = tri._sides
    by_edge = np.argsort(side_edge.ravel(), kind="stable")
    first = np.cumsum(count) - count
    faces = np.full((len(edges), 2), -1)
    faces[:, 0] = by_edge[first] // 3
    two = count == 2
    faces[two, 1] = by_edge[first[two] + 1] // 3
    return edges, faces


def packing_key_fact_residuals(tri: Triangulation, packing: CirclePacking) -> np.ndarray:
    """Per interior edge: |tangency of the two vertex circles - tangency of
    an adjacent inscribed circle with that edge| (zero in exact arithmetic)."""
    c = packing.centers
    r = packing.radii
    inc_centers, _ = incircle(*c[tri.faces].transpose(1, 0, 2))
    out = []
    for (a, b), fs in zip(*_edge_faces(tri)):
        d = c[b] - c[a]
        L = np.hypot(*d)
        q = c[a] + r[a] * d / L
        for f in fs[fs >= 0]:
            t = np.clip(np.dot(inc_centers[f] - c[a], d) / L**2, 0.0, 1.0)
            foot = c[a] + t * d
            out.append(np.hypot(*(q - foot)))
    return np.array(out)


# ---------------------------------------------------------------------------
# 3-connected planar maps and double circle packings


@dataclass
class PlanarMap3C:
    """Simple 3-connected planar map given by its face cycles.

    Every directed edge must appear in exactly one face cycle (so the outer
    face, like the rest, is listed; drawn in the plane its cycle runs
    clockwise).
    """

    n_vertices: int
    faces: list  # list of vertex id lists

    @cached_property
    def face_left(self) -> dict:
        out: dict = {}
        for i, cyc in enumerate(self.faces):
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                if (a, b) in out:
                    raise StructuralError(f"directed edge {(a, b)} in two faces")
                out[(int(a), int(b))] = i
        return out

    @cached_property
    def edges(self) -> list:
        # a directed side (a, b), read as a two-corner face, has the one edge {a, b}
        sides = np.array(list(self.face_left), int).reshape(-1, 2)
        return [tuple(e) for e in face_sides(sides)[0].tolist()]

    def rotation_around(self, v: int, start_face: int) -> list:
        """Faces incident to v in rotation order, starting from start_face."""
        prev = {}
        for i, cyc in enumerate(self.faces):
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
                if b == v:
                    prev[i] = a
        order = [start_face]
        while True:
            f = order[-1]
            nxt = self.face_left[(v, prev[f])]
            if nxt == start_face:
                break
            order.append(nxt)
            if len(order) > len(prev):
                raise StructuralError(f"rotation at vertex {v} does not close")
        return order

    def check_3_connected(self):
        """Raise StructuralError naming a separating vertex pair, if any.

        G is 3-connected iff it has at least 4 vertices and every G - v is
        connected with no cut vertex, i.e. one biconnected component that
        touches all n - 1 remaining vertices: one O(m) Hopcroft-Tarjan pass
        per vertex.
        """
        n = self.n_vertices
        if n < 4:
            raise StructuralError("3-connected maps need at least 4 vertices")
        edges = np.array(self.edges).reshape(-1, 2)

        def connected_without(*removed):
            keep = ~np.isin(edges, removed).any(axis=1)
            graph = edge_graph(n, edges[keep, 0], edges[keep, 1])
            return csgraph.connected_components(graph, directed=False,
                                                return_labels=False) == len(removed) + 1

        for v in range(n):
            rest = edges[(edges != v).all(axis=1)]
            _, n_blocks = _biconnected_components(n, rest)
            if n_blocks == 1 and np.unique(rest).size == n - 1:
                continue
            # v is the smallest vertex of any separating pair, so its partner
            # is larger than v
            u = next(u for u in range(v + 1, n) if not connected_without(v, u))
            raise StructuralError(f"removing vertices {{{v},{u}}} disconnects the map")
        return self


@dataclass
class DoubleCirclePacking:
    planar_map: PlanarMap3C
    outer_face: int
    vertex_centers: np.ndarray
    vertex_radii: np.ndarray
    face_centers: np.ndarray  # (n_faces, 2); outer face row is the origin
    face_radii: np.ndarray    # outer face entry is 1.0
    residuals: dict = field(default_factory=dict)
    angle_residual: float = 0.0

    def tangency_point(self, a: int, b: int) -> np.ndarray:
        d = self.vertex_centers[b] - self.vertex_centers[a]
        return self.vertex_centers[a] + self.vertex_radii[a] * d / np.hypot(*d)

    def to_json_dict(self) -> dict:
        return {
            "format": "oddoublepack/1",
            "outer_face": int(self.outer_face),
            "vertices": [
                {"id": int(i), "x": float(c[0]), "y": float(c[1]), "r": float(r)}
                for i, (c, r) in enumerate(zip(self.vertex_centers, self.vertex_radii))
            ],
            "faces": [
                {"id": int(i), "x": float(c[0]), "y": float(c[1]), "r": float(r)}
                for i, (c, r) in enumerate(zip(self.face_centers, self.face_radii))
            ],
        }


def double_pack(h: PlanarMap3C, outer_face: int = 0, tol: float = 1e-9,
                max_iter: int = 100_000, damping: float = 0.5,
                attested_3_connected: bool = False) -> DoubleCirclePacking:
    """Double circle packing with the chosen outer face sent to the unit circle.

    Angle model: each incidence of a vertex circle with an inner face circle
    contributes the right-triangle angle 2 atan(r_f / r_w) at the vertex
    center (and 2 atan(r_w / r_f) at the face center).  Boundary vertex
    circles cross the unit circle orthogonally, so the outer face occupies
    the reflex wedge 2 pi - 2 atan(1 / r_w) at their centers.
    """
    if not attested_3_connected:
        h.check_3_connected()
    n = h.n_vertices
    nf = len(h.faces)
    inner = [f for f in range(nf) if f != outer_face]
    # unknown slots: vertices 0..n-1, then inner faces
    slot_of_face = {f: n + k for k, f in enumerate(inner)}
    n_unk = n + len(inner)

    incid_v = [[] for _ in range(n)]   # per vertex: face slots (-1 = outer)
    for f, cyc in enumerate(h.faces):
        for v in cyc:
            incid_v[v].append(-1 if f == outer_face else slot_of_face[f])
    incid_f = [[v for v in h.faces[f]] for f in inner]

    u = np.zeros(n_unk)  # log radii, uniform start
    target = 2.0 * np.pi

    def residuals(uu):
        """Angle-sum defects F (want 0) at every unknown circle."""
        r = np.exp(uu)
        F = np.zeros(n_unk)
        for v in range(n):
            rv = r[v]
            acc = 0.0
            for s in incid_v[v]:
                if s == -1:
                    acc += target - 2.0 * np.arctan(1.0 / rv)
                else:
                    acc += 2.0 * np.arctan(r[s] / rv)
            F[v] = acc - target
        for k, verts in enumerate(incid_f):
            rf = r[n + k]
            F[n + k] = sum(2.0 * np.arctan(r[v] / rf) for v in verts) - target
        return F

    def jacobian(uu):
        r = np.exp(uu)
        J = np.zeros((n_unk, n_unk))
        for v in range(n):
            for s in incid_v[v]:
                if s == -1:
                    t = 1.0 / r[v]
                    J[v, v] += 2.0 * t / (1.0 + t * t)  # d/du of -2 atan(e^{-u})
                else:
                    t = r[s] / r[v]
                    d = 2.0 * t / (1.0 + t * t)
                    J[v, v] -= d
                    J[v, s] += d
        for k, verts in enumerate(incid_f):
            fslot = n + k
            for v in verts:
                t = r[v] / r[fslot]
                d = 2.0 * t / (1.0 + t * t)
                J[fslot, fslot] -= d
                J[fslot, v] += d
        return J

    # damped Newton with backtracking on ||F||; these systems are small
    err = np.inf
    it = 0
    while it < max_iter:
        F = residuals(u)
        err = float(np.abs(F).max())
        if err < 1e-13:
            break
        # minimum-norm step: the unit-circle normalization leaves a residual
        # Mobius freedom, so the Jacobian is rank deficient along it
        du, *_ = np.linalg.lstsq(jacobian(u), -F, rcond=None)
        du = np.clip(du, -2.0, 2.0)
        norm0 = float(np.linalg.norm(F))
        step = 1.0
        stalled = False
        for _ in range(40):
            cand = np.clip(u + step * du, -30.0, 30.0)
            if float(np.linalg.norm(residuals(cand))) < norm0 * (1.0 - 0.25 * step):
                break
            step *= 0.5
        else:
            stalled = True
        if stalled:
            if err < 1e-11:
                break  # at the floating point floor
            raise PackingError(f"double packing line search stalled (residual {err:.3e})")
        u = np.clip(u + step * du, -30.0, 30.0)
        it += 1
    if err > 1e-11:
        raise PackingError(f"double packing Newton stalled (angle residual {err:.3e})")

    r_all = np.exp(u)
    angle_resid = err

    # ------------------------------------------------------------------ layout
    vc = np.full(n, np.nan + 0j, complex)
    fc = np.full(nf, np.nan + 0j, complex)
    v_done = np.zeros(n, bool)
    f_done = np.zeros(nf, bool)
    f_done[outer_face] = True  # never placed by the walk

    def rad_v(v):
        return r_all[v]

    def rad_f(f):
        return 1.0 if f == outer_face else r_all[slot_of_face[f]]

    def half_angle(v, f):
        # half the kite angle at the vertex center; the outer face occupies
        # a reflex wedge there
        if f == outer_face:
            return np.pi - np.arctan(1.0 / rad_v(v))
        return np.arctan(rad_f(f) / rad_v(v))

    outer_cycle = set(h.faces[outer_face])
    try:
        v0 = next(v for v in range(n) if v not in outer_cycle)
    except StopIteration:
        v0 = 0
    vc[v0] = 0j
    v_done[v0] = True
    rot0 = h.rotation_around(v0, next(f for f in range(nf)
                                      if f != outer_face and v0 in h.faces[f]))
    f0 = rot0[0]
    fc[f0] = complex(np.hypot(rad_v(v0), rad_f(f0)))
    f_done[f0] = True

    for _ in range(2 * (n + nf) + 4):
        progress = False
        # around each placed vertex, sweep its rotation
        for v in range(n):
            if not v_done[v]:
                continue
            placed_f = [f for f in range(nf) if f != outer_face and f_done[f] and v in h.faces[f]]
            if not placed_f:
                continue
            rot = h.rotation_around(v, placed_f[0])
            ang = np.angle(fc[rot[0]] - vc[v])
            for i in range(len(rot)):
                f_cur, f_nxt = rot[i], rot[(i + 1) % len(rot)]
                ang += half_angle(v, f_cur) + half_angle(v, f_nxt)
                if f_nxt != outer_face and not f_done[f_nxt]:
                    d = np.hypot(rad_v(v), rad_f(f_nxt))
                    fc[f_nxt] = vc[v] + d * np.exp(1j * ang)
                    f_done[f_nxt] = True
                    progress = True
        # around each placed inner face, sweep its cycle
        for f in range(nf):
            if f == outer_face or not f_done[f]:
                continue
            cyc = h.faces[f]
            done_pos = [i for i, v in enumerate(cyc) if v_done[v]]
            if not done_pos:
                continue
            i0 = done_pos[0]
            ang = np.angle(vc[cyc[i0]] - fc[f])
            for k in range(len(cyc)):
                a = cyc[(i0 + k) % len(cyc)]
                b = cyc[(i0 + k + 1) % len(cyc)]
                step = np.arctan(rad_v(a) / rad_f(f)) + np.arctan(rad_v(b) / rad_f(f))
                ang += step
                if not v_done[b]:
                    d = np.hypot(rad_f(f), rad_v(b))
                    vc[b] = fc[f] + d * np.exp(1j * ang)
                    v_done[b] = True
                    progress = True
        if v_done.all() and all(f_done[f] for f in range(nf)):
            break
        if not progress:
            raise PackingError("double packing layout stalled")

    # fit the outer circle and normalize it to the unit circle
    rows = []
    rhs = []
    boundary_faces = set()
    for (a, b), f in h.face_left.items():
        if f == outer_face:
            g = h.face_left[(b, a)]
            boundary_faces.add(g)
    for g in sorted(boundary_faces):
        cg = fc[g]
        rg = rad_f(g)
        rows.append([-2 * cg.real, -2 * cg.imag, 2 * rg, 1.0])
        rhs.append(rg**2 - abs(cg) ** 2)
    for v in sorted(outer_cycle):
        cv = vc[v]
        rows.append([-2 * cv.real, -2 * cv.imag, 0.0, 1.0])
        rhs.append(rad_v(v) ** 2 - abs(cv) ** 2)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    z0 = complex(sol[0], sol[1])
    R0 = float(sol[2])
    if R0 <= 0:
        raise PackingError("outer circle fit failed")

    vc = (vc - z0) / R0
    fc = (fc - z0) / R0
    v_r = np.array([rad_v(v) / R0 for v in range(n)])
    f_r = np.array([rad_f(f) / R0 if f != outer_face else 1.0 for f in range(nf)])
    fc[outer_face] = 0j

    dp = DoubleCirclePacking(
        planar_map=h,
        outer_face=outer_face,
        vertex_centers=np.column_stack([vc.real, vc.imag]),
        vertex_radii=v_r,
        face_centers=np.column_stack([fc.real, fc.imag]),
        face_radii=f_r,
        angle_residual=angle_resid,
    )
    dp.residuals = _double_packing_residuals(dp)
    worst = max(dp.residuals["max_vertex_tangency"], dp.residuals["max_face_tangency"],
                dp.residuals["max_point_mismatch"])
    if worst > tol * max(1.0, float(v_r.max())) * 10:
        raise PackingError(f"double packing residual {worst:.3e} exceeds tolerance")
    return dp


def _double_packing_residuals(dp: DoubleCirclePacking) -> dict:
    h = dp.planar_map
    vc = dp.vertex_centers
    vr = dp.vertex_radii
    fcc = dp.face_centers
    fr = dp.face_radii
    out = {"max_vertex_tangency": 0.0, "max_face_tangency": 0.0,
           "max_point_mismatch": 0.0, "max_orthogonality": 0.0}
    for (a, b) in h.edges:
        fl = h.face_left[(a, b)]
        fr_face = h.face_left[(b, a)]
        gap = np.hypot(*(vc[a] - vc[b])) - (vr[a] + vr[b])
        out["max_vertex_tangency"] = max(out["max_vertex_tangency"], abs(gap))
        q = dp.tangency_point(a, b)
        if fl != dp.outer_face and fr_face != dp.outer_face:
            gap_f = np.hypot(*(fcc[fl] - fcc[fr_face])) - (fr[fl] + fr[fr_face])
            out["max_face_tangency"] = max(out["max_face_tangency"], abs(gap_f))
            d = fcc[fr_face] - fcc[fl]
            q2 = fcc[fl] + fr[fl] * d / np.hypot(*d)
            inner = fl
        else:
            # boundary edge: the inner face circle is internally tangent to
            # the unit circle at the shared tangency point
            inner = fl if fl != dp.outer_face else fr_face
            nrm = np.hypot(*fcc[inner])
            out["max_face_tangency"] = max(out["max_face_tangency"], abs(nrm + fr[inner] - 1.0))
            q2 = fcc[inner] * (1.0 + fr[inner] / nrm)
        out["max_point_mismatch"] = max(out["max_point_mismatch"], float(np.hypot(*(q - q2))))
        ortho = abs(np.dot(vc[a] - q, fcc[inner] - q)) / (vr[a] * fr[inner])
        out["max_orthogonality"] = max(out["max_orthogonality"], float(ortho))
    return out


def orthodiagonal_from_double_packing(h: PlanarMap3C, dp: DoubleCirclePacking,
                                      eta: float | None = None) -> OrthodiagonalMap:
    """Orthodiagonal representation from a double packing (Cor 2.4 style).

    One quad per edge of the map; boundary edges (those on the outer face)
    get an extension point past the tangency point on the unit circle.
    """
    n = h.n_vertices
    vc = dp.vertex_centers
    fcc = dp.face_centers
    fr = dp.face_radii
    outer = dp.outer_face

    inner_faces = [f for f in range(len(h.faces)) if f != outer]
    slot = {f: n + k for k, f in enumerate(inner_faces)}

    delta_b = float(dp.vertex_radii[list(set(h.faces[outer]))].max())

    positions = [vc[i] for i in range(n)] + [fcc[f] for f in inner_faces]
    primal = [True] * n + [False] * len(inner_faces)
    faces = []
    ext_pts = []
    for (a, b) in h.edges:
        fl = h.face_left[(a, b)]
        frc = h.face_left[(b, a)]
        q = dp.tangency_point(a, b)
        if fl != outer and frc != outer:
            quad = [a, slot[fl], b, slot[frc]]
            pts = np.array([positions[i] for i in quad])
            if signed_area(pts) < 0:
                quad = [quad[0], quad[3], quad[2], quad[1]]
            faces.append(quad)
        else:
            inner = fl if fl != outer else frc
            u = q - fcc[inner]
            u = u / np.hypot(*u)
            cap = 0.5 * min(dp.vertex_radii[a], dp.vertex_radii[b], delta_b)
            e = cap if eta is None else min(eta, cap)
            p_e = q + e * u
            k = n + len(inner_faces) + len(ext_pts)
            ext_pts.append(p_e)
            positions.append(p_e)
            primal.append(False)
            quad = [a, slot[inner], b, k]
            pts = np.array([positions[i] for i in quad])
            if signed_area(pts) < 0:
                quad = [quad[0], quad[3], quad[2], quad[1]]
            faces.append(quad)

    return OrthodiagonalMap(np.array(positions), np.array(primal, bool),
                            np.array(faces, int))


# ---------------------------------------------------------------------------
# SVG rendering (static inspection output)


def packing_svg(path, circles_centers, circles_radii, omap: OrthodiagonalMap | None = None,
                size: int = 800):
    """Write circles (and optionally a derived map's edges) as an SVG file."""
    cs = np.asarray(circles_centers, float)
    rs = np.asarray(circles_radii, float)
    lo = (cs - rs[:, None]).min(axis=0)
    hi = (cs + rs[:, None]).max(axis=0)
    span = float(max(hi - lo)) or 1.0
    scale = size / (1.1 * span)
    off = 0.05 * size - lo * scale

    def sx(p):
        return off[0] + p[0] * scale

    def sy(p):
        return size - (off[1] + p[1] * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    for c, r in zip(cs, rs):
        parts.append(
            f'<circle cx="{sx(c):.3f}" cy="{sy(c):.3f}" r="{r * scale:.3f}" '
            'fill="none" stroke="#888" stroke-width="1"/>'
        )
    if omap is not None:
        for a, b in omap.edges:
            pa, pb = omap.positions[a], omap.positions[b]
            parts.append(
                f'<line x1="{sx(pa):.3f}" y1="{sy(pa):.3f}" x2="{sx(pb):.3f}" '
                f'y2="{sy(pb):.3f}" stroke="#06c" stroke-width="1"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
