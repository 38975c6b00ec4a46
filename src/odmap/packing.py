"""Circle packings of triangulations in the unit disk, double circle packings
of 3-connected planar maps, and the orthodiagonal meshes they induce.

The in-disk packer solves for hyperbolic radii h in Colin de Verdiere's
variable t = tanh(h/2): boundary circles are horocycles (t = 1), and the
angle at circle p inside a tangent triple (p, a, b) is

    alpha = 2 asin sqrt( (1-t_p^2)^2 t_a t_b / ((t_p+t_a)(t_p+t_b)(1+t_p t_a)(1+t_p t_b)) ).

One sparse Newton solve in log t, where minus the Jacobian is SPD, drives the
angle sums to float precision; once its steps go through at full length, they
are CG steps preconditioned by the last factor.  Every factor, the packed map's
interior solve's too, takes the first one's fill-reducing order.  The layout
places Euclidean circles in the disk model (horocycles are circles internally
tangent to the unit circle), tracking hyperbolic centres / ideal points, one
breadth-first ring per array pass from the centre circle: each interior
circle of the last ring places its unplaced neighbours at the kite angles
summed about it.  Every placement is a closed form after one Moebius map: a
disk automorphism that moves an interior pivot's centre to the origin, or,
for a circle no placed interior circle reaches, the map to the upper half
plane that sends one of two placed horocycles to a horizontal line (from
that circle's lowest side whose face has its two other corners placed).  A
packing is accepted on its tangency residuals relative to the smaller circle
of each edge.

Double packings are solved in Euclidean terms on the vertex-face incidence
structure: the tangency point of two vertex circles is also the tangency
point of the two face circles and the circles meet orthogonally there, so
each incidence (w, f) contributes the right-triangle angle 2 atan(r_f / r_w)
to the flower of w, with the outer circle entering at fixed radius 1.  A
3-connected map, like a triangulation, reads the directed-side table of
:func:`~odmap.core_map.side_table`; the angle sums, their Jacobian, the
residual checks and the induced map are array passes over it.  The layout treats
every inner face as a rigid star of kites about its centre and places the
stars one array pass per generation, each face through a side whose two ends
are already placed.  The solve's outer circle has radius 1, and every inner
face on it touches it at its rim side's tangency point, so its centre is a
closed form: the layout is only translated to put it at the origin.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .core_map import (OrthodiagonalMap, SideTable, _sound_structure, boundary_cycle, paired_side_table,
                       side_table)
from .errors import GeometryError, PackingError, StructuralError
from .geometry import incircle, segments_intersect, signed_area
from .network import _pcg, definite_splu, edge_graph

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
    _valid: bool = field(default=False, init=False, repr=False, compare=False)  # validate passed

    def __post_init__(self):
        self.faces = np.asarray(self.faces, int).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= self.n_vertices):
            raise StructuralError("face refers to an unknown vertex")

    @cached_property
    def _sides(self) -> SideTable:
        """:func:`~odmap.core_map.side_table` of the faces, checked: no edge
        borders more than two faces, and no directed side occurs twice (the
        faces are consistently oriented)."""
        s = side_table(self.faces)
        over = s.count[s.edge] > 2
        if over.any():
            e = s.edge[np.argmax(over)]
            raise StructuralError(f"edge {tuple(s.edges[e].tolist())} borders {s.count[e]} faces")
        if (k := s.first_repeat()) >= 0:
            raise StructuralError(f"directed edge {(int(s.tail[k]), int(s.head[k]))} "
                                  "used twice; orientation inconsistent")
        return s

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected edges (e, 2), each row sorted, lexicographically ordered."""
        return self._sides.edges

    @cached_property
    def graph(self) -> sp.csr_matrix:
        """Vertex adjacency in the sparse form scipy.sparse.csgraph takes."""
        return edge_graph(self.n_vertices, self._sides.tail, self._sides.head)

    @cached_property
    def _boundary_sides(self) -> np.ndarray:
        """The sides no other face shares (those without a twin), in CCW
        order of their heads around the boundary: the faces'
        :func:`~odmap.core_map.boundary_cycle`, turned the way they run."""
        s = self._sides
        cyc = boundary_cycle(s, self.n_vertices)
        lone, into = np.flatnonzero(s.twin < 0), np.empty(self.n_vertices, int)
        into[s.head[lone]] = lone  # the one lone side into each boundary vertex
        # a lone side a -> b runs clockwise around the outside, so CCW the
        # cycle steps from each head to its side's tail
        if s.tail[into[cyc[0]]] != cyc[1]:
            cyc = np.roll(cyc[::-1], 1)
        return into[cyc]

    @cached_property
    def boundary_cycle(self) -> list:
        """Boundary vertices in CCW order (the heads of the lone sides)."""
        return self._sides.head[self._boundary_sides].tolist()

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, bool)
        mask[self.boundary_cycle] = True
        return mask

    def validate(self):
        """Raise StructuralError when not a simple triangulation with boundary (checked once)."""
        if self._valid:
            return self
        repeats = np.flatnonzero((self.faces == np.roll(self.faces, 1, axis=1)).any(axis=1))
        if repeats.size:
            raise StructuralError(f"face {repeats[0]} repeats a vertex")
        _ = self.boundary_cycle  # after the incidence and orientation checks
        # with those, each boundary vertex's fan is one path: a bare vertex is all that is left
        on_faces = np.bincount(self.faces.ravel(), minlength=self.n_vertices)
        if on_faces.min() == 0:
            raise StructuralError(f"vertex {np.argmin(on_faces)} lies on no face")
        if csgraph.connected_components(self.graph, directed=False, return_labels=False) != 1:
            raise StructuralError("triangulation is not connected")
        self._valid = True  # a flag, not self: a cached self would make a reference cycle
        return self


def triangulation_from_points(points: np.ndarray) -> Triangulation:
    """Delaunay triangulation of a planar point set (faces oriented CCW).

    Raises GeometryError when the points span no triangle (fewer than three,
    or all on one line).
    """
    from scipy.spatial import Delaunay, QhullError

    points = np.asarray(points, float)
    if len(points) < 3:
        raise GeometryError(f"a triangulation needs at least 3 points, got {len(points)}")
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise GeometryError(f"the {len(points)} points span no triangle: "
                            f"{str(exc).splitlines()[0]}") from None
    faces = tri.simplices.copy()
    cw = signed_area(points[faces]) < 0
    faces[cw] = faces[cw, ::-1]
    return Triangulation(len(points), faces, positions=points).validate()


# ---------------------------------------------------------------------------
# hyperbolic radius iteration


def _half_tangent(tp, ta, tb):
    """tan(alpha / 2) for the angle alpha (module docstring) at circle p in
    tangent triples (p, a, b); cos^2(alpha / 2) factors, so nothing cancels."""
    s, q = ta + tb, ta * tb
    return (1.0 - tp * tp) * np.sqrt(q / (tp * (1.0 + q + tp * s) * (s + tp * (1.0 + q))))


class _FixedPattern:
    """CSC structure of a square COO pattern (rows, cols) and the slot of each
    entry: one bincount fills what `sp.csc_matrix((data, (rows, cols)))` builds."""

    def __init__(self, rows, cols, size, keys=None, slot=None):
        self.rows, self.cols, self.size = rows, cols, size
        if keys is None:  # the distinct cols * size + rows, ascending
            keys, slot = np.unique(cols * size + rows, return_inverse=True)
        self.slot = slot
        self.indices, self.indptr = keys % size, np.searchsorted(keys, np.arange(size + 1) * size)

    def renumbered(self, rank) -> "_FixedPattern":
        """The pattern of (rank[rows], rank[cols]) by one argsort of its
        distinct keys, renumbered, in place of a second np.unique.  rank may
        be SuperLU's int32 perm_c: the keys run to size^2, so they are int64."""
        rank = rank.astype(np.int64)
        cols = np.repeat(np.arange(self.size), np.diff(self.indptr))
        keys = rank[cols] * self.size + rank[self.indices]
        order = np.argsort(keys)
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        return _FixedPattern(rank[self.rows], rank[self.cols], self.size, keys[order], where[self.slot])

    def fill(self, data) -> np.ndarray:
        """The CSC data of the entries ``data``, duplicates summed."""
        return np.bincount(self.slot, data, self.indices.size)

    def matrix(self, data) -> sp.csc_matrix:
        return sp.csc_matrix((self.fill(data), self.indices, self.indptr), shape=(self.size, self.size))


_NEWTON_STEPS = 100  # Newton steps before the radius solve gives up
_HALVINGS = 40       # halvings of one Newton step before it gives up
_CG_ITERATIONS = 10  # CG iterations on a kept factor before a Newton step factors afresh
_CG_RTOL = 1e-4      # CG stops at this fraction of ||F||_2 (the inexact-Newton forcing term)


def _solve_hyperbolic_radii(tri: Triangulation, angle_tol: float) -> tuple[np.ndarray, dict, np.ndarray | None]:
    """t = tanh(h / 2) of every circle with angle sum 2 pi at every interior
    vertex, and t = 1 (a horocycle) on the boundary; what the solve did; and
    the interior vertices in its factors' elimination order (None if none).

    Newton's method in u = log t on the angle-sum defects F, from t =
    1/sqrt(n), about the radius of n equal circles filling the disk.  In u,
    K = -dF/du is symmetric positive definite (F is the gradient of Colin de
    Verdiere's convex functional); each step refills it on one fixed pattern
    and factors it by :func:`~odmap.network.definite_splu`, unless a factor
    is kept: then the step is :func:`~odmap.network._pcg` on K du = F
    preconditioned by that factor, taken if ||F - K du||_2 <= _CG_RTOL ||F||_2
    (an inexact Newton step) within _CG_ITERATIONS iterations, else K factors
    afresh.  The unknowns, the corner rows and the pattern are renumbered once
    into the first factor's fill-reducing order, which later factors take as
    NATURAL.  A factor is kept while its own step and each one after it go
    through at full length; where Newton's model holds over a step, K moves
    little along it.  A step longer than 2 in any component is scaled down
    as a whole, then halved until ||F||_2 falls.  Below angle_tol, one more
    step on the last factor, kept if it lowers ||F||_2, takes t nearer float
    precision.  Raises PackingError when halving bottoms out or after
    _NEWTON_STEPS steps.  The stats count the Newton steps, factorizations
    and CG iterations, and give the final angle residual max |F|.
    """
    boundary = tri.boundary_mask
    t = np.where(boundary, 1.0, 1.0 / np.sqrt(tri.n_vertices))
    stats = {"steps": 0, "factorizations": 0, "cg_iterations": 0, "angle_residual": 0.0}
    if boundary.all():
        return t, stats, None
    # the angle fans: corner v of face (v, a, b) for every interior v
    corners = np.concatenate([tri.faces, tri.faces[:, [1, 2, 0]], tri.faces[:, [2, 0, 1]]])
    v, a, b = corners[~boundary[corners[:, 0]]].T
    inner = np.flatnonzero(~boundary)  # the vertex of each unknown
    m = inner.size
    slot = np.cumsum(~boundary) - 1  # the unknown of each interior vertex
    row = diag_row = slot[v]  # the row of each corner in F, and in K's diagonal entries
    # K: the diagonal, then an entry per corner and interior neighbour; its
    # entries keep this numbering, which a renumbered pattern maps
    keep_a, keep_b = ~boundary[a], ~boundary[b]
    pattern = _FixedPattern(np.concatenate([np.arange(m), row[keep_a], row[keep_b]]),
                            np.concatenate([np.arange(m), slot[a[keep_a]], slot[b[keep_b]]]), m)

    def defects(t):
        """F, and tan(alpha / 2) at every corner."""
        k = _half_tangent(t[v], t[a], t[b])
        return np.bincount(row, 2.0 * np.arctan(k), m) - 2.0 * np.pi, k

    def stiffness(t, k):
        """-d alpha / d u at every corner: k (4 tp^2 / (1 - tp^2) + sum over
        w = a, b of tp / (tp + tw) + tp tw / (1 + tp tw)) on the diagonal and
        -k tp (1 - tw^2) / ((tp + tw)(1 + tp tw)) for w, k = tan(alpha / 2)."""
        tp, ta, tb = t[v], t[a], t[b]
        pa, pb = (tp + ta) * (1.0 + tp * ta), (tp + tb) * (1.0 + tp * tb)
        diag = 4.0 * tp * tp / (1.0 - tp * tp) + tp * ((1.0 + 2.0 * tp * ta + ta * ta) / pa
                                                       + (1.0 + 2.0 * tp * tb + tb * tb) / pb)
        ka, kb = k * tp * (1.0 - ta * ta) / pa, k * tp * (1.0 - tb * tb) / pb
        return np.concatenate([np.bincount(diag_row, k * diag, m), -ka[keep_a], -kb[keep_b]])

    def precondition(r):
        stats["cg_iterations"] += 1
        return kept(r)

    def cg_step(F):
        """The step in u for F by CG on K preconditioned by the kept factor,
        or None when its true residual misses _CG_RTOL ||F||_2."""
        tol = _CG_RTOL * np.linalg.norm(F)
        du = _pcg(K, F, precondition, tol, _CG_ITERATIONS)
        return du if np.linalg.norm(F - K @ du) <= tol else None  # NaN misses too

    def moved(t, du):
        trial = t.copy()
        trial[inner] = np.clip(t[inner] * np.exp(du), 1e-300, 1.0 - 1e-16)
        return trial

    F, k = defects(t)
    K, kept, permc = pattern.matrix(np.zeros(pattern.slot.size)), None, "MMD_AT_PLUS_A"
    while (err := float(np.abs(F).max())) >= angle_tol:
        if stats["steps"] == _NEWTON_STEPS:
            raise PackingError(f"radius solve stopped after {_NEWTON_STEPS} Newton steps "
                               f"(angle residual {err:.3e})")
        stats["steps"] += 1
        K.data = pattern.fill(data := stiffness(t, k))
        du = None if kept is None else cg_step(F)
        if du is None:
            solve = kept = None  # one factor alive at a time
            stats["factorizations"] += 1
            try:
                lu = definite_splu(K, permc)
                solve, du = lu.solve, lu.solve(F)
            except RuntimeError:  # exactly singular factor
                du = np.full(m, np.nan)
            if not np.isfinite(du).all():
                raise PackingError("singular Jacobian in the radius solve "
                                   f"(angle residual {err:.3e})")
            if permc != "NATURAL":  # unknown i becomes rank[i]; only this factor sees the old order
                rank, order, permc = lu.perm_c, np.argsort(lu.perm_c), "NATURAL"
                pattern, row, inner = pattern.renumbered(rank), rank[row], inner[order]
                K, F, du = pattern.matrix(data), F[order], du[order]
                solve = lambda r, first=solve: first(r[rank])[order]
            kept = solve
        norm = np.linalg.norm(F)
        scale = min(1.0, 2.0 / np.abs(du).max())  # scaled, not clipped: same direction
        for _ in range(_HALVINGS):
            trial = moved(t, scale * du)
            F_trial, k_trial = defects(trial)
            if np.linalg.norm(F_trial) < norm:
                break
            scale *= 0.5
        else:
            raise PackingError(f"radius solve stalled: no Newton step lowers the angle "
                               f"residual {err:.3e}")
        if scale < 1.0:  # Newton's model failed over the step, so K moved along it
            kept = None
        t, F, k = trial, F_trial, k_trial
    if stats["steps"]:  # a chord step on the last factor, kept if it lowers ||F||
        trial = moved(t, solve(F))
        F_trial = defects(trial)[0]
        if np.linalg.norm(F_trial) < np.linalg.norm(F):
            t, F = trial, F_trial
    stats["angle_residual"] = float(np.abs(F).max())
    return t, stats, (inner if permc == "NATURAL" else None)


# ---------------------------------------------------------------------------
# layout in the disk model


def _euclid_from_hyp(z, t):
    """Euclidean centre and radius of the circle at hyperbolic centre z with t."""
    s2 = np.hypot(z.real, z.imag) ** 2
    den = 1.0 - s2 * t * t
    return z * (1.0 - t * t) / den, t * (1.0 - s2) / den


def _horo_from_tangency(zeta, c_p, rho_p):
    """Horocycle at ideal point zeta externally tangent to circle (c_p, rho_p),
    solved from d = zeta - c_p: |d - rho zeta| = rho + rho_p, with no term of
    size 1 that cancels."""
    d = zeta - c_p
    rho = (d.real**2 + d.imag**2 - rho_p**2) / (2.0 * ((zeta.conjugate() * d).real + rho_p))
    return (1.0 - rho) * zeta, rho


@dataclass
class CirclePacking:
    centers: np.ndarray  # (n, 2)
    radii: np.ndarray
    boundary_mask: np.ndarray
    residuals: dict = field(default_factory=dict)
    # the interior circles in the radius solve's elimination order, for the packed map's solve
    _elimination: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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


def pack_in_disk(tri: Triangulation, tol: float = 1e-8) -> CirclePacking:
    """Maximal circle packing of a triangulation in the unit disk.

    Boundary circles come out internally tangent to the unit circle; when an
    interior vertex exists, the most central one is centered at the origin,
    else the first face is three equal horocycles symmetric about it.  Each
    array pass places every unplaced neighbour of the interior circles the
    pass before placed, in closed form from one of them, at the kite angles
    summed about it from the circle that one was placed from; so placements
    chain only as deep as the graph, not around its rings.  A circle r that
    no placed interior circle reaches is placed from the horocycles p and q
    of the face (r, p, q) of its lowest side r -> p whose p and q are
    placed.  Raises PackingError when a circle comes out non-finite, or when
    a tangency residual relative to the smaller circle, or a boundary
    residual, exceeds tol (naming the smaller circle on the worst edge, and
    whether it is too small for the disk's floats).
    """
    tri.validate()
    n, faces, boundary = tri.n_vertices, tri.faces, tri.boundary_mask
    angle_tol = max(min(1e-12, 0.01 * tol), 1e-14)
    t, solve_stats, elimination = _solve_hyperbolic_radii(tri, angle_tol)

    s = tri._sides
    centers = np.full(n, np.nan + 0j, complex)
    radii = np.full(n, np.nan)
    anchors = np.full(n, np.nan + 0j, complex)  # hyp center or ideal point
    steps = np.zeros(n, int)  # placements between the seed and each circle
    ref = np.zeros(n, int)  # the side from each placed interior circle to its reference
    new = np.zeros(n, bool)  # the newest interior layer
    interior_idx = np.flatnonzero(~boundary)
    if interior_idx.size:
        # seed: interior vertex furthest from the boundary (graph distance)
        dist = csgraph.dijkstra(tri.graph, directed=False, indices=np.flatnonzero(boundary),
                                unweighted=True, min_only=True)
        seed = int(interior_idx[np.argmax(dist[interior_idx])])
        centers[seed], radii[seed], anchors[seed] = 0j, t[seed], 0j
        # the seed's lowest side, to q, the first petal of its flower, on
        # the positive real axis
        k = int(np.argmax(s.tail == seed))
        q = int(s.head[k])
        anchors[q] = (t[seed] + t[q]) / (1.0 + t[seed] * t[q])  # 1 when q is a horocycle
        centers[q], radii[q] = (_horo_from_tangency(anchors[q], 0j, t[seed]) if boundary[q]
                                else _euclid_from_hyp(anchors[q], t[q]))
        ref[[seed, q]], new[[seed, q]] = (k, s.twin[k]), (True, not boundary[q])
    else:
        # no interior vertex: the first face is three mutually tangent
        # horocycles, symmetric about the origin
        radii[faces[0]] = 2.0 * np.sqrt(3.0) - 3.0
        anchors[faces[0]] = np.exp(1j * np.pi * np.array([-5 / 6, -1 / 6, 1 / 2]))
        centers[faces[0]] = (1.0 - radii[faces[0]]) * anchors[faces[0]]

    # the kite angle at the tail v of side k = (v -> a) of face (v, a, b) runs
    # from a to b, the head of the next side about v, twin[nxt[nxt[k]]]; cum[k]
    # sums them about v from v's lowest side (or where the rim cuts its fan)
    # by pointer jumping, with a sentinel side past the last
    alpha = np.append(2.0 * np.arctan(_half_tangent(t[s.tail], t[s.head], t[s.head[s.nxt]])), 0.0)
    back, after, cut = np.full(alpha.size, alpha.size - 1), s.twin[s.nxt[s.nxt]], np.full(n, alpha.size - 1)
    back[after[after >= 0]] = np.flatnonzero(after >= 0)
    np.minimum.at(cut, s.tail, np.arange(s.tail.size))
    back[cut] = alpha.size - 1
    cum = alpha[back]
    for _ in range(int(np.bincount(s.tail).max()).bit_length()):
        cum, back = cum + cum[back], back[back]
    placed = ~np.isnan(radii)
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN is caught below
        while not placed.all():
            if new.any():
                # each unplaced neighbour r of the newest layer, from its
                # lowest side p -> r out of it: about p moved to the origin, r
                # sits at the summed kite angle from p's reference neighbour
                k = np.flatnonzero(new[s.tail] & ~placed[s.head])
                k = k[np.unique(s.head[k], return_index=True)[1]]
                p, r = s.tail[k], s.head[k]
                tp, tr, ap, aq = t[p], t[r], anchors[p], anchors[s.head[ref[p]]]
                dr = (aq - ap) / (1.0 - ap.conjugate() * aq)
                dr *= np.exp(1j * (cum[k] - cum[ref[p]])) / np.hypot(dr.real, dr.imag)
                dr *= (tp + tr) / (1.0 + tp * tr)  # tanh of half the distance p to r
                z = (dr + ap) / (1.0 + ap.conjugate() * dr)
                steps[r], ref[r], rim = steps[p] + 1, s.twin[k], boundary[r]
                z[rim] /= np.hypot(z[rim].real, z[rim].imag)
                centers[r[rim]], radii[r[rim]] = _horo_from_tangency(z[rim], centers[p[rim]],
                                                                     radii[p[rim]])
            else:
                # a circle no placed interior circle reaches (its placed
                # neighbours are all horocycles), from its lowest side r -> p
                # whose face (r, p, q) has p and q placed
                k = np.flatnonzero(~placed[s.tail] & placed[s.head] & placed[s.head[s.nxt]])
                if not k.size:
                    break
                k = k[np.unique(s.tail[k], return_index=True)[1]]
                r, p, q = s.tail[k], s.head[k], s.head[s.nxt[k]]
                # w = i(zeta + z)/(zeta - z) sends p's ideal point zeta to
                # infinity, p to the line Im w = H and q to a circle of
                # diameter H on the real axis at X_q; r's hyperbolic centre
                # (ideal point if t_r = 1) is X_q + H (2 sqrt(t_r) + i (1 - t_r)) / (1 + t_r)
                zeta, th, H = anchors[p], t[r], (1.0 - radii[p]) / radii[p]
                w = ((1j * (zeta + anchors[q]) / (zeta - anchors[q])).real
                     + H * (2.0 * np.sqrt(th) + 1j * (1.0 - th)) / (1.0 + th))
                z = zeta * (w - 1j) / (w + 1j)
                steps[r], ref[r], rim = np.maximum(steps[p], steps[q]) + 1, k, boundary[r]
                z[rim] /= np.hypot(z[rim].real, z[rim].imag)
                # r a horocycle: w is real, |z - zeta|^2 = 4 / (w^2 + 1) and
                # rho_r = (1 - rho_p) / (1 + rho_p w^2), where the tangency's
                # terms of size 1 would cancel to one of size rho_p rho_r
                radii[r[rim]] = (1.0 - radii[p[rim]]) / (1.0 + radii[p[rim]] * w[rim].real ** 2)
                centers[r[rim]] = (1.0 - radii[r[rim]]) * z[rim]
            centers[r[~rim]], radii[r[~rim]] = _euclid_from_hyp(z[~rim], t[r[~rim]])
            anchors[r], placed[r] = z, True
            new[:] = False
            new[r[~rim]] = True

    bad = ~(np.isfinite(centers) & np.isfinite(radii))
    if bad.any():
        raise PackingError(f"layout of circle {int(np.argmax(bad))} is not finite")

    packing = CirclePacking(np.column_stack([centers.real, centers.imag]), radii, boundary.copy())
    packing.residuals = _packing_residuals(tri, packing)
    packing.residuals["radius_solve"], packing._elimination = solve_stats, elimination
    # report which disk-approximation normalization hypothesis holds: a
    # circle centered at the origin, or at least one center well inside
    dist0 = np.hypot(packing.centers[:, 0], packing.centers[:, 1])
    delta2 = 2.0 * packing.max_boundary_radius
    packing.residuals["centered_circle"] = bool(dist0.min() <= 1e-9)
    packing.residuals["center_in_small_disk"] = bool((dist0 < 1.0 - delta2).any())
    rel, rim = packing.residuals["max_relative_tangency"], packing.residuals["max_boundary"]
    if not (rel <= tol and rim <= tol):  # NaN fails too
        # positions hold about 1e-16 absolute, and the closed forms square that
        # near the rim: a circle of radius r is laid out to about 1e-16 / r^2
        c, (a, b) = packing.centers, tri.edges.T  # the worst edge, as _packing_residuals finds it
        gap = np.abs(np.hypot(*(c[a] - c[b]).T) - (radii[a] + radii[b])) / np.minimum(radii[a], radii[b])
        i = int(np.where(radii[a] <= radii[b], a, b)[np.argmax(gap)])
        past = " and is past the disk model's float precision" if 1e-16 > tol * radii[i] ** 2 else ""
        raise PackingError(f"packing residual exceeds tolerance {tol:.1e}: relative tangency "
                           f"{rel:.3e}, boundary {rim:.3e}; the worst edge's smaller circle {i} "
                           f"of radius {radii[i]:.2e} lies {steps[i]} placements from the seed{past}")
    return packing


def _packing_residuals(tri: Triangulation, p: CirclePacking) -> dict:
    """Tangency residuals on the edges, boundary residual, protrusion, and the
    worst overlap: the least separation (or 0.0) of the pairs of circles i, j
    with |c_i - c_j| <= 2 r_i that a search of the ascending edge keys finds
    no edge."""
    from scipy.spatial import cKDTree

    c, r, n = p.centers, p.radii, len(p.radii)

    def separation(i, j):
        return np.hypot(*(c[i] - c[j]).T) - (r[i] + r[j])

    a, b = tri.edges.T
    gap = np.abs(separation(a, b))
    rim = np.flatnonzero(p.boundary_mask)
    bound = np.abs(np.hypot(*c[rim].T) + r[rim] - 1.0).max(initial=0.0)
    inside = float((np.hypot(c[:, 0], c[:, 1]) + r).max() - 1.0)
    # non-adjacent overlap (most negative separation): circles i, j overlap
    # only if |c_i - c_j| < 2 max(r_i, r_j), so a ball of radius 2 r_i around
    # each center holds every overlap partner of the larger circle; one array
    # query per class of radii in [2^(k-1), 2^k) finds them within 2^(k+1)
    tree, k = cKDTree(c), np.frexp(r)[1]
    near = [(cls, cKDTree(c[cls]).sparse_distance_matrix(tree, 2.0 ** (e + 1), output_type="ndarray"))
            for e in np.unique(k) for cls in [np.flatnonzero(k == e)]]
    i, j = (np.concatenate([cls[d["i"]] for cls, d in near]), np.concatenate([d["j"] for _, d in near]))
    keep = np.concatenate([d["v"] for _, d in near]) <= 2.0 * r[i]
    i, j = i[keep], j[keep]
    pair, edge = np.minimum(i, j) * n + np.maximum(i, j), a * n + b  # edge keys ascend
    keep = (i != j) & (edge[np.minimum(np.searchsorted(edge, pair), edge.size - 1)] != pair)
    overlap = min(float(separation(i[keep], j[keep]).min(initial=0.0)), 0.0)
    return {
        "max_tangency": float(gap.max(initial=0.0)),
        "max_relative_tangency": float((gap / np.minimum(r[a], r[b])).max(initial=0.0)),
        "max_boundary": float(bound),
        "protrusion": max(inside, 0.0),
        "worst_overlap": overlap,
    }


# ---------------------------------------------------------------------------
# packing -> orthodiagonal map


def _quad_map(positions, n, s: SideTable, s1, s2, dual, ext, outer) -> OrthodiagonalMap:
    """The map of quads [e0, w(s1), e1, w(s2)], turned CCW where they are not,
    one per edge (e0, e1) of a parent with side table s: w(k) = dual[face of
    side k], or the edge's ext where s2 is -1; the first n vertices are
    primal.  Quad edge (v, w(k)) at the tail v of side k lies on the quads
    of k and of the side before it, so the map is given its side table and
    boundary cycle from s, unless outer (the outer face's sides in order) is
    None: a parent face that visits a vertex twice breaks that."""
    quads = np.column_stack([s.edges[:, 0], dual[s.face[s1]], s.edges[:, 1],
                             np.where(s2 < 0, ext, dual[s.face[s2]])])
    # w(s1) lies left of s1 (inside its CCW face) and w(s2) right of it (an
    # extension point lies outside its rim side), so a quad runs clockwise
    # exactly when s1 runs e0 -> e1
    cw = s.tail[s1] == quads[:, 0]
    quads[cw] = quads[cw][:, [0, 3, 2, 1]]
    m = OrthodiagonalMap(positions, np.arange(len(positions)) < n, quads)
    if outer is not None:
        # quad i's sides on (tail s1, w(s1)), (head s1, w(s1)), (head s1, w(s2))
        # and (tail s1, w(s2)) are 4 i + 1, 0, 3, 2, or 4 i + 3, 2, 1, 0 where it
        # is turned; a and b hold each edge's sides, at the parent side whose
        # tail and face it joins, or past them for extension points
        j = 4 * np.arange(len(quads))
        j1 = j + 2 * cw
        j0, j2, j3 = j1 + 1, 2 * j + 3 - j1, 2 * j + 2 - j1
        rim = s2 < 0
        x = s.tail.size + 2 * np.arange(int(rim.sum()))
        a, b = np.full((2, s.tail.size + 2 * x.size), -1)
        a[s1], a[s2[~rim]], a[x], a[x + 1] = j0, j2[~rim], j2[rim], j3[rim]
        b[s.nxt[s1]], b[s.nxt[s2[~rim]]] = j1, j3[~rim]
        cycle = np.column_stack([s.tail[outer], ext[s.edge[outer]]]).ravel()
        vars(m).update(_sides=paired_side_table(quads, a[a >= 0], b[a >= 0]),
                       _boundary_cycle=m._least_first(cycle))
    return m


def orthodiagonal_from_packing(tri: Triangulation, packing: CirclePacking,
                               eta: float | None = None) -> OrthodiagonalMap:
    """Orthodiagonal representation induced by an in-disk packing.

    Primal vertices sit at circle centers, dual vertices at the inscribed
    circle centers of the triangles plus one extension point per boundary
    edge, pushed a distance eta past the shared tangency point.  Its quads
    are one per triangulation edge, so it is built with its side table and
    boundary cycle from the triangulation's (:func:`_quad_map`), and with
    the structural checks of :func:`~odmap.core_map.validate` passed: a
    valid triangulation makes each of them hold by construction.
    """
    tri.validate()
    c, r, n, m = packing.centers, packing.radii, tri.n_vertices, len(tri.faces)

    inc_centers, _ = incircle(*c[tri.faces].transpose(1, 0, 2))

    # boundary edge k joins a[k] to b[k] = a[k + 1] along the boundary cycle;
    # its triangle holds the lone side that runs from b[k] to a[k]
    s = tri._sides
    lone = tri._boundary_sides
    a, b, bface, bedge = s.head[lone], s.tail[lone], s.face[lone], s.edge[lone]

    # extension points: eta past each tangency point q, away from the
    # incenter, halved while the quads of consecutive boundary edges cross
    d = c[b] - c[a]
    q = c[a] + r[a, None] * d / np.hypot(*d.T)[:, None]
    u = q - inc_centers[bface]
    u = u / np.hypot(*u.T)[:, None]
    etas = 0.5 * np.minimum(np.minimum(r[a], r[b]), np.maximum(1.0 - np.hypot(*q.T), 1e-12))
    if eta is not None:
        etas = np.minimum(eta, etas)
    for _ in range(12):
        if not _extensions_cross(c[a], c[b], q + etas[:, None] * u):
            break
        warnings.warn("boundary extension overlaps; shrinking eta")
        etas = 0.5 * etas
    positions = np.vstack([c, inc_centers, q + etas[:, None] * u])

    # one quad per edge: its two triangles' incenters, or (an edge without
    # a twin) its one triangle's incenter and its extension point
    ext = np.zeros(len(s.edges), int)
    ext[bedge] = n + m + np.arange(len(a))
    # lone runs against the sides' direction around the boundary
    omap = _quad_map(positions, n, s, s.first, s.twin[s.first], n + np.arange(m), ext, lone[::-1])
    omap._structure, omap._elimination = _sound_structure(2 * len(a)), packing._elimination
    return omap


def _extensions_cross(ca, cb, ext) -> bool:
    """Whether the outer sides (ca_k, ext_k, cb_k) of a boundary edge's quad
    cross those of the next edge's, for any k around the cycle."""
    ext_next, cb_next = np.roll(ext, -1, axis=0), np.roll(cb, -1, axis=0)
    return bool(segments_intersect(np.stack([ca, ca, ext]), np.stack([ext, ext, cb]),
                                   np.stack([cb, ext_next, ext_next]),
                                   np.stack([ext_next, cb_next, cb_next]),
                                   include_endpoints=False).any())


def packing_key_fact_residuals(tri: Triangulation, packing: CirclePacking) -> np.ndarray:
    """Per edge and each face on it (edge-major): |tangency point of the two
    vertex circles - tangency point of the face's inscribed circle with that
    edge| (zero in exact arithmetic)."""
    c = packing.centers
    r = packing.radii
    inc_centers, _ = incircle(*c[tri.faces].transpose(1, 0, 2))
    s = tri._sides
    sides = np.column_stack([s.first, s.twin[s.first]])  # -1: no second face
    e, k = np.nonzero(sides >= 0)
    a, b = s.edges[e].T
    d = c[b] - c[a]
    L = np.hypot(*d.T)
    q = c[a] + r[a, None] * d / L[:, None]
    t = np.clip(np.sum((inc_centers[s.face[sides[e, k]]] - c[a]) * d, axis=1) / L**2, 0.0, 1.0)
    return np.hypot(*(q - (c[a] + t[:, None] * d)).T)


# ---------------------------------------------------------------------------
# 3-connected planar maps and double circle packings


@dataclass
class PlanarMap3C:
    """Simple 3-connected planar map given by its face cycles.

    Every directed edge must appear in exactly one face cycle, and so must
    its reverse, and the faces must close up into a sphere: the map is
    connected, the corners at each vertex form one cycle around it, and
    n - e + f = 2.  So the outer face, like the rest, is listed; drawn in the
    plane its cycle runs clockwise.
    """

    n_vertices: int
    faces: list  # list of vertex id lists
    _3_connected: bool = field(default=False, init=False, repr=False, compare=False)  # check passed

    @cached_property
    def _sides(self) -> SideTable:
        """:func:`~odmap.core_map.side_table` of the faces; raises
        StructuralError when the faces are not a map on the sphere."""
        n = self.n_vertices
        if min(map(len, self.faces), default=3) < 3:
            raise StructuralError("face with fewer than 3 corners")
        s = side_table(self.faces)
        if s.tail.min(initial=0) < 0 or s.tail.max(initial=-1) >= n:
            raise StructuralError("face refers to an unknown vertex")
        if (k := s.first_repeat()) >= 0:
            raise StructuralError(f"directed edge {(int(s.tail[k]), int(s.head[k]))} in two faces")
        # with no direction repeated, a side without a twin is alone on its edge
        if (lone := s.twin < 0).any():
            k = np.argmax(lone)
            raise StructuralError(f"directed edge {(int(s.tail[k]), int(s.head[k]))} has no reverse")
        # twin[prev] turns each side about its tail, so its cycles are the
        # vertex rotations
        sides = np.arange(s.tail.size)
        prev = np.empty_like(s.nxt)
        prev[s.nxt] = sides
        n_rot = csgraph.connected_components(edge_graph(sides.size, sides, s.twin[prev]),
                                             directed=False, return_labels=False)
        n_comp = csgraph.connected_components(edge_graph(n, s.tail, s.head), directed=False,
                                              return_labels=False)
        euler = n - sides.size // 2 + len(self.faces)
        if n_comp != 1 or n_rot != n or euler != 2:
            raise StructuralError(f"faces do not form a sphere: {n_comp} component(s), {n_rot} vertex "
                                  f"rotations on {n} vertices, n - e + f = {euler}")
        return s

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected edges (e, 2), each row sorted, lexicographically ordered."""
        return self._sides.edges

    @cached_property
    def _flanks(self) -> np.ndarray:
        """(e, 2): the faces left and right of each edge (a, b), run a -> b."""
        s = self._sides
        ab = np.where(s.tail[s.first] < s.head[s.first], s.first, s.twin[s.first])
        return s.face[np.column_stack([ab, s.twin[ab]])]

    def check_3_connected(self):
        """Raise StructuralError naming the lexicographically first separating
        vertex pair, if any (checked once).

        A map on the sphere whose faces are all cycles is 2-connected, and
        then 3-connected iff every two faces meet in nothing, one vertex or
        one edge; one sparse face x vertex product finds the face pairs that
        meet in more.  Otherwise every separating pair either lies on two
        faces that do not share it as an edge, or holds a vertex that some
        face visits twice (a cut vertex), so only those candidate pairs are
        removed and tested for connectivity, in order.
        """
        if self._3_connected:
            return self
        n = self.n_vertices
        if n < 4:
            raise StructuralError("3-connected maps need at least 4 vertices")
        s = self._sides
        nf = len(self.faces)
        inc = sp.csr_matrix((np.ones(s.tail.size), (s.face, s.tail)), shape=(nf, n))
        twice = inc.indices[inc.data > 1]
        inc.data[:] = 1.0
        meet = sp.triu(inc @ inc.T, 1).tocoo()
        two = meet.data >= 2
        f, g, count = meet.row[two], meet.col[two], meet.data[two]
        # the two faces on each edge, lower index first
        ef = np.sort(self._flanks, axis=1)
        bad = (count > 2) | ~np.isin(f * nf + g, ef[:, 0] * nf + ef[:, 1])
        if not twice.size and not bad.any():
            self._3_connected = True  # a flag, not self: a cached self would make a reference cycle
            return self
        faces_of = dict(zip(map(tuple, self.edges.tolist()), map(tuple, ef.tolist())))
        pairs = set()
        shared = inc[f[bad]].multiply(inc[g[bad]]).tolil().rows
        for fg, row in zip(zip(f[bad].tolist(), g[bad].tolist()), shared):
            pairs.update(p for p in combinations(row, 2) if faces_of.get(p) != fg)
        for c in twice.tolist():
            pairs.update((min(c, w), max(c, w)) for w in range(n) if w != c)
        for pair in sorted(pairs):
            rest = self.edges[~np.isin(self.edges, pair).any(axis=1)]
            if csgraph.connected_components(edge_graph(n, *rest.T), directed=False,
                                            return_labels=False) > 3:
                raise StructuralError(f"removing vertices {{{pair[0]},{pair[1]}}} disconnects the map")
        self._3_connected = True
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

    def tangency_point(self, a, b) -> np.ndarray:
        """Where vertex circles a and b touch; broadcasts over index arrays."""
        d = self.vertex_centers[b] - self.vertex_centers[a]
        return (self.vertex_centers[a] + self.vertex_radii[a][..., None] * d
                / np.hypot(d[..., 0], d[..., 1])[..., None])

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


def _angle_incidences(h: PlanarMap3C, outer_face: int):
    """The double packing's angle equations as one incidence list (row, col).

    The unknowns are the log radii of vertices 0..n-1, then of the inner
    faces in order.  Incidence k adds the kite angle 2 atan(r[col] / r[row])
    to the angle sum at unknown row; col -1 is the outer face (radius 1),
    whose reflex wedge 2 pi - 2 atan(1 / r_v) enters instead.  The rows run
    vertex by vertex (faces ascending), then inner face by inner face (along
    its cycle): the order the sums are taken in.
    """
    s = h._sides
    n, nf = h.n_vertices, len(h.faces)
    slot = n + np.arange(nf) - (np.arange(nf) > outer_face)
    slot[outer_face] = -1
    by_vertex = np.argsort(s.tail, kind="stable")
    inner = s.face != outer_face
    return (np.concatenate([s.tail[by_vertex], slot[s.face[inner]]]),
            np.concatenate([slot[s.face[by_vertex]], s.tail[inner]]))


def _kite_ratios(u, row, col):
    r = np.exp(u)
    outer = col < 0
    return np.where(outer, 1.0, r[col]) / r[row], outer


def _angle_defects(u, row, col) -> np.ndarray:
    """Angle-sum defects F (want 0) at every unknown circle."""
    t, outer = _kite_ratios(u, row, col)
    a = 2.0 * np.arctan(t)
    return np.bincount(row, np.where(outer, 2.0 * np.pi - a, a), len(u)) - 2.0 * np.pi


def _angle_jacobian(u, row, col) -> np.ndarray:
    """Dense dF/du of :func:`_angle_defects`."""
    t, outer = _kite_ratios(u, row, col)
    d = 2.0 * t / (1.0 + t * t)
    J = np.zeros((len(u), len(u)))
    np.add.at(J, (row, row), np.where(outer, d, -d))
    np.add.at(J, (row[~outer], col[~outer]), d[~outer])
    return J


def _double_packing_layout(h: PlanarMap3C, outer_face: int, rv, rf):
    """Vertex and face circle centres (complex) from the radii.

    Every inner face is a rigid star: corner v of face f sits at distance
    hypot(r_v, r_f) from its centre, at the kite angles summed along the
    cycle.  Gauge: the lowest vertex off the outer face, v0, at the origin,
    and the centre of its lowest-index inner face on the positive real axis.
    From that face on, one array pass per generation places every unplaced
    inner face with a side whose two ends are placed, turning its star onto
    them through the first such side, and then every unplaced corner of the
    faces just placed, where the first of them that holds it puts it.
    """
    s = h._sides
    n, nf = h.n_vertices, len(h.faces)
    half = np.arctan(rv[s.tail] / rf[s.face])
    step = half + half[s.nxt]
    # angle of each corner about its face centre, summed along each face
    # in turn (faces of one length at a time)
    lens = np.bincount(s.face, minlength=nf)
    start = np.cumsum(lens) - lens
    phi = np.zeros(s.tail.size)
    for k in np.unique(lens):
        sides = start[lens == k, None] + np.arange(k - 1)
        phi[sides + 1] = np.cumsum(step[sides], axis=1)
    corner = np.hypot(rv[s.tail], rf[s.face]) * np.exp(1j * phi)

    # v0 is the lowest vertex off the outer face, k0 its side on its lowest
    # inner face f0 (sides run face by face)
    on_outer = np.zeros(n, bool)
    on_outer[s.tail[s.face == outer_face]] = True
    k0 = int(np.argmax((s.tail == np.argmin(on_outer)) & (s.face != outer_face)))
    rot, fc, vc = np.zeros(nf, complex), np.zeros(nf, complex), np.zeros(n, complex)
    rot[s.face[k0]], fc[s.face[k0]] = -abs(corner[k0]) / corner[k0], abs(corner[k0])
    placed, done, new = np.zeros(n, bool), np.zeros(nf, bool), np.zeros(nf, bool)
    done[outer_face] = new[s.face[k0]] = True
    while new.any():
        # the unplaced corners of the new faces, each where its first face puts it
        k = np.flatnonzero(new[s.face] & ~placed[s.tail])
        k = k[np.unique(s.tail[k], return_index=True)[1]]
        vc[s.tail[k]] = rot[s.face[k]] * corner[k] + fc[s.face[k]]
        placed[s.tail[k]] = True
        done |= new
        # each unplaced face turned onto the two placed ends of its first side
        # that has them
        k = np.flatnonzero(~done[s.face] & placed[s.tail] & placed[s.head])
        k = k[np.unique(s.face[k], return_index=True)[1]]
        f = s.face[k]
        w = (vc[s.head[k]] - vc[s.tail[k]]) / (corner[s.nxt[k]] - corner[k])
        rot[f] = w / abs(w)
        fc[f] = vc[s.tail[k]] - rot[f] * corner[k]
        new[:] = False
        new[f] = True
    return vc, fc


def double_pack(h: PlanarMap3C, outer_face: int = 0, tol: float = 1e-9,
                max_iter: int = 100_000) -> DoubleCirclePacking:
    """Double circle packing with the chosen outer face sent to the unit circle.

    Angle model: each incidence of a vertex circle with an inner face circle
    contributes the right-triangle angle 2 atan(r_f / r_w) at the vertex
    center (and 2 atan(r_w / r_f) at the face center).  Boundary vertex
    circles cross the unit circle orthogonally, so the outer face occupies
    the reflex wedge 2 pi - 2 atan(1 / r_w) at their centers.  The radii are
    kept as solved; the layout is translated so that the unit circle, found
    from the inner faces tangent to it at the rim tangency points, is
    centred at the origin.
    """
    if not 0 <= outer_face < len(h.faces):
        raise StructuralError(f"outer face {outer_face} out of range for {len(h.faces)} faces")
    h.check_3_connected()
    n = h.n_vertices
    row, col = _angle_incidences(h, outer_face)
    u = np.zeros(n + len(h.faces) - 1)  # log radii, uniform start

    # damped Newton with backtracking on ||F||; these systems are small
    err = np.inf
    it = 0
    while it < max_iter:
        F = _angle_defects(u, row, col)
        err = float(np.abs(F).max())
        if err < 1e-13:
            break
        # minimum-norm step: the unit-circle normalization leaves a residual
        # Mobius freedom, so the Jacobian is rank deficient along it
        du, *_ = np.linalg.lstsq(_angle_jacobian(u, row, col), -F, rcond=None)
        du = np.clip(du, -2.0, 2.0)
        norm0 = float(np.linalg.norm(F))
        step = 1.0
        stalled = False
        for _ in range(40):
            cand = np.clip(u + step * du, -30.0, 30.0)
            if float(np.linalg.norm(_angle_defects(cand, row, col))) < norm0 * (1.0 - 0.25 * step):
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

    r = np.exp(u)
    rv, rf = r[:n], np.insert(r[n:], outer_face, 1.0)
    vc, fc = _double_packing_layout(h, outer_face, rv, rf)
    # the outer circle has radius 1 in these units, and the inner face g on
    # rim side (a, b) touches it from inside where vertex circles a and b
    # touch, at q, so its centre is q + (c_g - q) / |c_g - q|: move the mean
    # of that over the rim sides to the origin
    s = h._sides
    k = np.flatnonzero(s.face == outer_face)
    a, b, g = s.tail[k], s.head[k], s.face[s.twin[k]]
    q = vc[a] + rv[a] * (vc[b] - vc[a]) / abs(vc[b] - vc[a])
    z0 = np.mean(q + (fc[g] - q) / abs(fc[g] - q))
    vc -= z0
    fc -= z0
    fc[outer_face] = 0j
    dp = DoubleCirclePacking(
        planar_map=h,
        outer_face=outer_face,
        vertex_centers=np.column_stack([vc.real, vc.imag]),
        vertex_radii=rv,
        face_centers=np.column_stack([fc.real, fc.imag]),
        face_radii=rf,
        angle_residual=err,
    )
    dp.residuals = _double_packing_residuals(dp)
    worst = max(dp.residuals["max_vertex_tangency"], dp.residuals["max_face_tangency"],
                dp.residuals["max_point_mismatch"])
    if worst > tol * max(1.0, float(dp.vertex_radii.max())) * 10:
        raise PackingError(f"double packing residual {worst:.3e} exceeds tolerance")
    return dp


def _double_packing_residuals(dp: DoubleCirclePacking) -> dict:
    # per edge (a, b): the faces left and right of a -> b, and its inner face
    a, b = dp.planar_map.edges.T
    left, right = dp.planar_map._flanks.T
    rim = (left == dp.outer_face) | (right == dp.outer_face)
    inner = np.where(left == dp.outer_face, right, left)
    vc, vr, fcc, fr = dp.vertex_centers, dp.vertex_radii, dp.face_centers, dp.face_radii
    gap = np.hypot(*(vc[a] - vc[b]).T) - (vr[a] + vr[b])
    q = dp.tangency_point(a, b)
    # the face circles of an edge: two inner ones touch each other at q2; an
    # inner one on the rim is internally tangent to the unit circle at q2
    face_gap = np.empty(len(a))
    q2 = np.empty((len(a), 2))
    f, g = left[~rim], right[~rim]
    d = fcc[g] - fcc[f]
    face_gap[~rim] = np.hypot(*(fcc[f] - fcc[g]).T) - (fr[f] + fr[g])
    q2[~rim] = fcc[f] + fr[f, None] * d / np.hypot(*d.T)[:, None]
    f = inner[rim]
    nrm = np.hypot(*fcc[f].T)
    face_gap[rim] = nrm + fr[f] - 1.0
    q2[rim] = fcc[f] * (1.0 + fr[f] / nrm)[:, None]
    # row-times-column matmuls sum in the same order as np.dot
    dot = ((vc[a] - q)[:, None, :] @ (fcc[inner] - q)[:, :, None])[:, 0, 0]
    return {"max_vertex_tangency": float(np.abs(gap).max(initial=0.0)),
            "max_face_tangency": float(np.abs(face_gap).max(initial=0.0)),
            "max_point_mismatch": float(np.hypot(*(q - q2).T).max(initial=0.0)),
            "max_orthogonality": float((np.abs(dot) / (vr[a] * fr[inner])).max(initial=0.0))}


def orthodiagonal_from_double_packing(h: PlanarMap3C, dp: DoubleCirclePacking,
                                      eta: float | None = None) -> OrthodiagonalMap:
    """Orthodiagonal representation from a double packing (Cor 2.4 style).

    One quad per edge of the map; boundary edges (those on the outer face)
    get an extension point past the tangency point on the unit circle.  The
    map is built with its side table and boundary cycle from the planar
    map's (:func:`_quad_map`) when no face visits a vertex twice, and with
    the structural checks of :func:`~odmap.core_map.validate` passed when
    the planar map has passed :meth:`PlanarMap3C.check_3_connected` too.
    """
    n, nf, s, vr = h.n_vertices, len(h.faces), h._sides, dp.vertex_radii
    a, b = h.edges.T
    s1 = np.where(s.tail[s.first] == a, s.first, s.twin[s.first])  # the side a -> b
    s1 = np.where(s.face[s1] == dp.outer_face, s.twin[s1], s1)  # on an inner face
    rim = s.face[s.twin[s1]] == dp.outer_face
    outer = np.flatnonzero(s.face == dp.outer_face)  # the outer face's sides, in order
    # extension points: past each rim tangency point, away from the centre
    # of its inner face circle
    q = dp.tangency_point(a[rim], b[rim])
    u = q - dp.face_centers[s.face[s1[rim]]]
    u = u / np.hypot(*u.T)[:, None]
    cap = 0.5 * np.minimum(np.minimum(vr[a[rim]], vr[b[rim]]), float(vr[s.tail[outer]].max()))
    e = cap if eta is None else np.minimum(eta, cap)
    positions = np.vstack([dp.vertex_centers, np.delete(dp.face_centers, dp.outer_face, axis=0),
                           q + e[:, None] * u])
    ext = np.zeros(len(a), int)
    ext[rim] = n + nf - 1 + np.arange(rim.sum())
    simple = np.unique(s.face * n + s.tail).size == s.tail.size
    m = _quad_map(positions, n, s, s1, np.where(rim, -1, s.twin[s1]),
                  n + np.arange(nf) - (np.arange(nf) > dp.outer_face), ext, outer if simple else None)
    if simple and h._3_connected:
        m._structure = _sound_structure(2 * outer.size)
    return m


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
