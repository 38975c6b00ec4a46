"""Explicit low-energy flows on the primal network and the circle-straddling
edge/path machinery that feeds them.

The argument flow pushes unit current from a disk around a vertex out to the
map boundary using increments of the angular coordinate across the dual
diagonals; its strength before normalization is 2 pi (a winding-number
identity).  The random-path flow averages indicator flows of paths made of
rho-edges (primal edges whose dual endpoints straddle the circle of radius
rho), with the paper's 1/t density replaced by a deterministic midpoint
quadrature in log t.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .core_map import AugmentedDuals, OrthodiagonalMap
from .errors import GeometryError, RhoPathError
from .geometry import cross2, seg_points_distance
from .network import (EdgeField, VertexFunction, edge_graph, energy, energy_of_function,
                      strength)


@dataclass
class FlowReport:
    """A flow together with its certified strength/energy and the shape of
    the theoretical bound it is compared against (any universal constant is
    reported as the ratio energy / bound_shape, never asserted)."""

    flow: EdgeField
    strength: float
    energy: float
    bound_shape: float
    ratio: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"strength": self.strength, "energy": self.energy, "bound_shape": self.bound_shape,
                "ratio": self.ratio, **self.flow.to_json_dict()}


@dataclass
class RhoEdgeSet:
    center: np.ndarray
    rho: float
    edge_indices: np.ndarray  # indices into the (augmented) primal edge list
    augmented: bool = False


# ---------------------------------------------------------------------------
# argument flow


def _face_corner_reflex(quad: np.ndarray) -> np.ndarray:
    """Index of the first reflex corner of each simple CCW quad (..., 4, 2),
    or -1 where the quad is convex."""
    side = quad - np.roll(quad, 1, axis=-2)                  # corner k-1 -> k
    turn = cross2(side, np.roll(side, -1, axis=-2)) < 0
    return np.where(turn.any(axis=-1), turn.argmax(axis=-1), -1)


def _delta_arg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Change of the angular coordinate along each segment a -> b (|.| < pi)."""
    dot = (a[..., None, :] @ b[..., :, None])[..., 0, 0]  # row-wise a . b
    return np.arctan2(cross2(a, b), dot)


def _argument_increments(omap: OrthodiagonalMap, xp: np.ndarray) -> np.ndarray:
    """Per face, the change of arg (about xp) from w1 to w2 along the dual
    edge, which bends through the midpoint of the primal diagonal when the
    quad's reflex corner is a primal one (so |increment| may pass pi)."""
    quad = omap.positions[omap.faces]
    bend = np.isin(_face_corner_reflex(quad), (0, 2))
    rel = quad - xp
    w1, w2 = rel[:, 1], rel[:, 3]
    mid = 0.5 * (rel[:, 0] + rel[:, 2])
    return np.where(bend, _delta_arg(w1, mid) + _delta_arg(mid, w2), _delta_arg(w1, w2))


def argument_flow(omap: OrthodiagonalMap, x: int, r: float,
                  relax_radius_hypothesis: bool = False) -> FlowReport:
    """Unit flow from the vertices inside B(x, r) to the map boundary.

    Per face the flow carries the increment of arg (about x) between the two
    dual endpoints, evaluated along the actual dual edge (bent through the
    midpoint of the primal diagonal for concave quads, so the winding-number
    divergence identity is exact).  Edges with both endpoints inside the disk
    are zeroed, then the whole field is normalized by 2 pi.
    """
    pos = omap.positions
    xp = pos[x]
    if not omap.primal_mask[x]:
        raise GeometryError("center vertex must be primal")
    eps = omap.mesh_size()
    if r < 3.0 * eps:
        if not relax_radius_hypothesis:
            raise GeometryError(
                f"radius {r} is below 3*mesh ({3 * eps:.3g}); the energy bound may fail "
                "(pass relax_radius_hypothesis=True to proceed)")
        warnings.warn("radius below 3*mesh; energy bound hypothesis relaxed")
    # the closed disk must avoid the boundary walk
    walk = omap.boundary_walk
    a, b = pos[walk], pos[np.roll(walk, -1)]
    d = seg_points_distance(a, b, xp)
    k = int(np.argmin(d))
    if d[k] <= r:
        a, b = a[k], b[k]
        t = np.clip(np.dot(xp - a, b - a) / max(float((b - a) @ (b - a)), 1e-300), 0, 1)
        p = a + t * (b - a)
        raise GeometryError(
            f"disk of radius {r} reaches the boundary near ({p[0]:.6g}, {p[1]:.6g})")

    net = omap.primal_network()
    phi = _argument_increments(omap, xp)
    f = omap.faces
    in_A = np.zeros(omap.n_vertices, bool)
    in_A[omap.primal_vertices] = np.hypot(*(pos[omap.primal_vertices] - xp).T) <= r
    theta = EdgeField(net, np.where(in_A[f[:, 0]] & in_A[f[:, 2]], 0.0, phi) / (2.0 * np.pi))

    bdry_primal, _ = omap.boundary_vertices()
    A_labels = np.flatnonzero(in_A).tolist()
    sink = bdry_primal[~in_A[bdry_primal]]
    s = strength(net, theta, A_labels, sink)
    en = energy(net, theta)
    shape = float(np.log(omap.diameter() / r))
    div = theta.divergence()
    off = ~in_A[net.labels] & ~omap.boundary_vertex_mask[net.labels]
    return FlowReport(
        flow=theta,
        strength=s,
        energy=en,
        bound_shape=shape,
        ratio=en / shape if shape > 0 else np.inf,
        meta={
            "x": int(x),
            "r": float(r),
            "A": A_labels,
            "max_divergence_off_A": float(np.abs(div[off]).max(initial=0.0)),
            "raw_field": phi,
        },
    )


def argument_field(omap: OrthodiagonalMap, x: int) -> EdgeField:
    """The raw (unnormalized, un-truncated) argument field about vertex x.

    Its divergence is 2 pi at x and 0 at every other interior primal vertex,
    by the winding number of the dual cycle around each vertex.
    """
    return EdgeField(omap.primal_network(), _argument_increments(omap, omap.positions[x]))


# ---------------------------------------------------------------------------
# rho-edges and paths


def _dual_endpoint_norms(source, center):
    """Per-edge (min, max) distance of the dual endpoints from the center; an
    augmented pair's APEX (-1) reads the inf appended to the norms."""
    omap, pairs = ((source.omap, source.dual_pairs) if isinstance(source, AugmentedDuals)
                   else (source, source.faces[:, [1, 3]]))
    ends = np.append(np.hypot(*(omap.positions - np.asarray(center, float)).T), np.inf)[pairs]
    return ends.min(axis=1), ends.max(axis=1)


def rho_edges(source, center, rho: float) -> RhoEdgeSet:
    """Primal edges whose dual endpoints w, w' satisfy |w| < rho <= |w'|
    (distances measured from the center)."""
    lo, hi = _dual_endpoint_norms(source, center)
    members = np.flatnonzero((lo < rho) & (rho <= hi))
    return RhoEdgeSet(np.asarray(center, float), float(rho), members,
                      augmented=isinstance(source, AugmentedDuals))


class _RhoPaths:
    """The radius-independent part of :func:`rho_path`, run once per (map, A,
    B', center): A and B' as sorted index arrays and masks, their checks, the
    most central A-vertex x and its most central dual neighbour u.  Calling
    it with a radius runs the search for that radius."""

    def __init__(self, omap: OrthodiagonalMap, A, B_prime, center):
        n, f = omap.n_vertices, omap.faces
        A, B = (np.unique(np.fromiter(p, int)) for p in (A, B_prime))
        if not A.size or not B.size:
            raise RhoPathError("A and B' must be nonempty")
        if np.intersect1d(A, B).size:
            raise RhoPathError("A and B' must be disjoint")
        self.in_A, self.in_B = np.zeros(n, bool), np.zeros(n, bool)
        self.in_A[A] = self.in_B[B] = True

        # connectivity-to-boundary hypotheses: every vertex of the set has a path
        # to the map boundary inside the set, i.e. every component of the primal
        # graph induced on the set meets the boundary
        v1, v2 = f[:, 0], f[:, 2]
        for name, part, inside in (("A", A, self.in_A), ("B'", B, self.in_B)):
            keep = inside[v1] & inside[v2]
            _, comp = csgraph.connected_components(edge_graph(n, v1[keep], v2[keep]), directed=False)
            if not np.isin(comp[part], comp[omap.boundary_vertex_mask & inside]).all():
                raise RhoPathError(f"no path from {name} to the map boundary stays inside {name}")

        # x: most central A-vertex; u: its most central dual neighbour (ties to
        # the lower index)
        self.norms = np.hypot(*(omap.positions - np.asarray(center, float)).T)
        x = A[np.lexsort((A, self.norms[A]))[0]]
        e = omap.edges
        nbs = np.concatenate([e[e[:, 0] == x, 1], e[e[:, 1] == x, 0]])
        self.u = int(nbs[np.lexsort((nbs, self.norms[nbs]))[0]]) if nbs.size else None
        self.omap, self.A, self.B = omap, A, B

    def __call__(self, rho: float) -> dict:
        n, f = self.omap.n_vertices, self.omap.faces
        if self.u is None or self.norms[self.u] >= rho:
            raise RhoPathError(
                f"no dual vertex within radius {rho} next to the central A-vertex; "
                "the construction degenerates")

        # S_rho: the dual vertices reachable from u inside the open rho-disk
        inside = self.norms < rho
        w1, w2 = f[:, 1], f[:, 3]
        near = inside[w1] & inside[w2]
        S = csgraph.breadth_first_order(edge_graph(n, w1[near], w2[near]), self.u,
                                        directed=False, return_predecessors=False)
        in_S = np.zeros(n, bool)
        in_S[S] = True

        # cut edges: exactly one dual endpoint in S_rho; all are rho-edges
        cut = np.flatnonzero(in_S[w1] != in_S[w2])
        t, h = f[cut, 0], f[cut, 2]

        # multi-source BFS from A (a hub vertex n feeds the sources in order)
        # that never re-enters A; the path ends at the first B' vertex reached
        in_A = self.in_A
        sources = np.intersect1d(self.A, np.concatenate([t, h]))
        if not sources.size:
            raise RhoPathError(
                f"no A-vertex touches the rho-cut (rho={rho}, |S_rho|={S.size}, "
                f"cut size {cut.size})")
        tails = np.concatenate([t[~in_A[h]], h[~in_A[t]], np.full(sources.size, n)])
        heads = np.concatenate([h[~in_A[h]], t[~in_A[t]], sources])
        order, parent = csgraph.breadth_first_order(edge_graph(n + 1, tails, heads), n)
        reached = order[1:][self.in_B[order[1:]]]  # order[0] is the hub
        if not reached.size:
            raise RhoPathError(
                f"no rho-edge path from A to B' (rho={rho}, |S_rho|={S.size}, "
                f"A-contacts {sources.size})")
        verts = [int(reached[0])]
        while parent[verts[-1]] != n:
            verts.append(int(parent[verts[-1]]))

        # each step uses the lowest-numbered cut edge joining its two vertices:
        # the first match in the cut sorted by (pair key, edge index)
        key = np.minimum(t, h) * n + np.maximum(t, h)
        by_key = np.lexsort((cut, key))
        a, b = np.array(verts[:-1]), np.array(verts[1:])
        steps = by_key[np.searchsorted(key[by_key], np.minimum(a, b) * n + np.maximum(a, b))]
        return {"vertices": verts[::-1], "edges": cut[steps[::-1]].tolist(), "rho": float(rho),
                "S_size": int(S.size)}


def rho_path(aug: AugmentedDuals, rho: float, A, B_prime, center=(0.0, 0.0)) -> dict:
    """Simple path of rho-edges from A to B' inside the original primal graph.

    Follows the boundary-of-f_out construction: grow the set S_rho of dual
    vertices reachable inside the open rho-disk from a dual vertex next to
    the most central A-vertex, take the edges with exactly one dual endpoint
    in S_rho (all of them rho-edges, none augmented), and breadth-first
    search that cut for the shortest A -> B' path.  Core edges and dual pairs
    come from ``aug.omap.faces``.
    Returns {"vertices": [...], "edges": [...], "rho": rho, "S_size": |S_rho|}.
    """
    return _RhoPaths(aug.omap, A, B_prime, center)(rho)


# ---------------------------------------------------------------------------
# random path flow


def random_path_flow(omap: OrthodiagonalMap, S, T, r1: float, r2: float,
                     m: int = 32, center=(0.0, 0.0), seed: int | None = None,
                     relax_radius_hypothesis: bool = False) -> FlowReport:
    """Unit flow from S to T averaging indicator flows of rho-edge paths.

    rho runs over a deterministic midpoint quadrature of the 1/t density on
    [r1, r2] in log t (m cells of equal mass); passing a seed replaces the
    grid by m independent samples of the same density for cross-validation.

    The radius-independent hypotheses of :func:`rho_path` (S and T nonempty
    and disjoint, each with a path to the map boundary inside itself) are
    checked once, and a failure raises its own RhoPathError.  Radii whose
    search fails are collected, and one RhoPathError then lists them.
    """
    eps = omap.mesh_size()
    if r1 < eps or r2 < 2 * r1:
        msg = (f"radii (r1={r1}, r2={r2}) violate r1 >= mesh ({eps:.3g}) or "
               "r2 >= 2 r1; the energy bound may fail")
        if not relax_radius_hypothesis:
            raise GeometryError(msg + " (pass relax_radius_hypothesis=True to proceed)")
        warnings.warn(msg)
    if m < 1:
        raise GeometryError("need at least one quadrature point")
    search = _RhoPaths(omap, S, T, center)
    net = omap.primal_network()

    if seed is None:
        grid = r1 * (r2 / r1) ** ((np.arange(m) + 0.5) / m)
    else:
        grid = r1 * (r2 / r1) ** np.random.default_rng(seed).random(m)

    values = np.zeros(net.n_edges)
    failures, paths = [], []
    for rho in grid:
        try:
            res = search(float(rho))
        except RhoPathError:
            failures.append(float(rho))
            continue
        paths.append(res)
        e = np.array(res["edges"])
        np.add.at(values, e, np.where(omap.faces[e, 0] == res["vertices"][:-1], 1.0, -1.0) / m)
    if failures:
        raise RhoPathError(
            f"{len(failures)} of {m} quadrature radii have no rho-edge path: "
            + ", ".join(f"rho={r:.5g}" for r in failures[:6]))

    theta = EdgeField(net, values)
    s = strength(net, theta, search.A, search.B)
    en = energy(net, theta)
    shape = 1.0 / float(np.log(r2 / r1))
    return FlowReport(
        flow=theta,
        strength=s,
        energy=en,
        bound_shape=shape,
        ratio=en / shape,
        meta={"r1": r1, "r2": r2, "m": m, "rhos": grid.tolist(), "paths": paths},
    )


# ---------------------------------------------------------------------------
# equicontinuity probe


def equicontinuity_probe(omap: OrthodiagonalMap, h: VertexFunction, x: int, y: int,
                         R: float):
    """The three quantities of the discrete-smoothness estimate:
    |h(x)-h(y)|, sqrt(E(h)) / sqrt(log(R/(r+eps))), and the boundary
    oscillation beta over the primal boundary vertices inside the R-disk."""
    pos = omap.positions
    eps = omap.mesh_size()
    r = 0.5 * float(np.hypot(*(pos[x] - pos[y])))
    if R < 2 * r + 3 * eps:
        raise GeometryError(f"R = {R} must be at least 2r + 3 eps = {2 * r + 3 * eps:.6g}")
    center = 0.5 * (pos[x] + pos[y])
    net = h.network
    lhs = abs(h.at(x) - h.at(y))
    en = energy_of_function(net, h)
    denom = float(np.sqrt(np.log(R / (r + eps))))
    rhs_shape = float(np.sqrt(en)) / denom

    bdry_primal, _ = omap.boundary_vertices()
    in_disk = bdry_primal[np.hypot(*(pos[bdry_primal] - center).T) <= R]
    vals = h.values[net.indices_of(in_disk)]
    beta = float(vals.max() - vals.min()) if vals.size else 0.0
    return lhs, rhs_shape, beta
