"""Orthodiagonal maps: embedded bipartite quad meshes with orthogonal diagonals.

A map stores vertex positions, a primal/dual coloring, and a list of quad
faces ``[v1, w1, v2, w2]`` traversed counterclockwise with ``v1, v2`` primal
and ``w1, w2`` dual.  Everything else (edges, boundary walk, vertex
partitions, the weighted primal/dual networks) is derived deterministically
from the face list.

Faces are the single source of truth, and :func:`side_table` (one stable sort
of the face sides by edge) is the one derivation of edges and twins from a
face list, for maps, triangulations and 3-connected maps alike; incidence,
boundary and blocks are array operations on it.  Edge ``i`` of the
primal network, edge ``i`` of the dual network and face ``i`` of the map
always correspond: the primal edge joins ``v1, v2`` with conductance
|w1 w2| / |v1 v2| and the dual edge joins ``w1, w2`` with the reciprocal
weight, so the index-level bijection between primal and dual edges is
available everywhere for free.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import DegenerateFaceError, StructuralError
from .geometry import max_distance, signed_area
from .network import Network, edge_graph


class SideTable(NamedTuple):
    """Directed sides of a face list, numbered face by face along each cycle."""

    tail: np.ndarray   # side k runs from tail[k] to head[k] along face[k]
    head: np.ndarray
    face: np.ndarray
    nxt: np.ndarray    # the side after k on its face
    edge: np.ndarray   # the row of edges that side k lies on
    twin: np.ndarray   # the other side of k's edge if it has exactly two, else -1
    edges: np.ndarray  # distinct undirected edges (e, 2), rows sorted, in lexicographic order
    count: np.ndarray  # the number of sides on each edge
    first: np.ndarray  # the lowest-numbered side on each edge

    def first_repeat(self) -> int:
        """The first side that runs along its edge the way an earlier side does, or -1."""
        k = np.arange(self.tail.size)
        key = 2 * self.edge + (self.tail > self.head)
        seen = np.full(2 * len(self.edges), k.size)
        np.minimum.at(seen, key, k)  # the first side of each direction of each edge
        repeat = seen[key] < k
        return int(np.argmax(repeat)) if repeat.any() else -1


def side_table(faces) -> SideTable:
    """:class:`SideTable` of an (m, k) face array or a ragged list of faces.

    One stable argsort of the undirected side keys groups the sides by edge,
    in side order within each edge.
    """
    if isinstance(faces, np.ndarray):
        lens = np.full(len(faces), faces.shape[1])
        tail = np.asarray(faces, int).ravel()
    else:
        lens = np.array([len(f) for f in faces], int)
        tail = np.fromiter(itertools.chain.from_iterable(faces), int, lens.sum())
    face = np.repeat(np.arange(len(lens)), lens)
    ends = np.cumsum(lens)
    nxt = np.arange(1, tail.size + 1)
    nxt[ends - 1] = ends - lens
    head = tail[nxt]
    n = int(tail.max(initial=0)) + 1
    key = np.minimum(tail, head) * n + np.maximum(tail, head)
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    count = np.diff(start, append=key.size)
    edge = np.empty_like(order)
    edge[order] = np.repeat(np.arange(start.size), count)
    twin = np.full_like(order, -1)
    pair = start[count == 2]
    twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]
    return SideTable(tail, head, face, nxt, edge, twin,
                     np.column_stack([key[start] // n, key[start] % n]), count, order[start])


class OrthodiagonalMap:
    """Finite plane quad mesh with orthogonal diagonals.

    The constructor stores raw data without validating it; run
    :func:`validate` to obtain a full report, or access derived attributes
    (which raise ``StructuralError`` on combinatorially broken input).
    Instances are immutable once built.
    """

    def __init__(self, positions, primal_mask, faces, ids=None):
        self.positions = np.asarray(positions, float).reshape(-1, 2)
        self.primal_mask = np.asarray(primal_mask, bool).reshape(-1)
        self.faces = np.asarray(faces, int).reshape(-1, 4)
        n = len(self.positions)
        if len(self.primal_mask) != n:
            raise StructuralError("positions and colors disagree in length")
        self.ids = np.arange(n) if ids is None else np.asarray(ids, int).reshape(-1)
        if len(self.ids) != n:
            raise StructuralError("ids and positions disagree in length")

    # -- basic counts ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.positions)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def _check_face_indices(self):
        if self.n_faces and (self.faces.min() < 0 or self.faces.max() >= self.n_vertices):
            raise StructuralError("face refers to a vertex index that does not exist")

    # -- derived combinatorics --------------------------------------------

    @cached_property
    def _sides(self) -> SideTable:
        """:func:`side_table` of the faces (side 4 i + j joins corners j, j + 1 of face i)."""
        self._check_face_indices()
        if np.any(self.faces == np.roll(self.faces, -1, axis=1)):
            raise StructuralError("face repeats a vertex on consecutive corners")
        return side_table(self.faces)

    @cached_property
    def edges(self) -> np.ndarray:
        """Undirected G-edges (k, 2), each row sorted, lexicographically ordered."""
        return self._sides.edges

    @cached_property
    def edge_face_count(self) -> np.ndarray:
        """Number of face sides on each edge of :attr:`edges`."""
        return self._sides.count

    @cached_property
    def boundary_walk(self) -> np.ndarray:
        """Cyclic vertex sequence of the outer face, oriented counterclockwise.

        Raises StructuralError when the boundary is not a single simple
        closed walk.
        """
        bedges = self.edges[self.edge_face_count == 1]
        if not bedges.size:
            raise StructuralError("map has no boundary edges")
        ends = bedges.ravel()
        odd = np.bincount(ends)[ends] != 2
        if odd.any():  # name the first one in boundary-edge order
            raise StructuralError(f"boundary is not simple at vertex {ends[np.argmax(odd)]}")
        a, b = bedges.T
        # every vertex has two boundary neighbours, so a depth-first search
        # from the smallest one, taking the smaller neighbour first, walks
        # its cycle
        graph = edge_graph(self.n_vertices, np.concatenate([a, b]), np.concatenate([b, a]))
        walk = csgraph.depth_first_order(graph, a.min(), return_predecessors=False).astype(int)
        if len(walk) != len(a):
            raise StructuralError("boundary edges form more than one cycle")
        if signed_area(self.positions[walk]) < 0:
            walk = walk[::-1].copy()
        return walk

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, bool)
        mask[self.boundary_walk] = True
        return mask

    @property
    def primal_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.primal_mask)

    @property
    def dual_vertices(self) -> np.ndarray:
        return np.flatnonzero(~self.primal_mask)

    def boundary_vertices(self):
        """(boundary primal, boundary dual) index arrays."""
        m = self.boundary_vertex_mask
        return np.flatnonzero(m & self.primal_mask), np.flatnonzero(m & ~self.primal_mask)

    def interior_vertices(self):
        m = self.boundary_vertex_mask
        return np.flatnonzero(~m & self.primal_mask), np.flatnonzero(~m & ~self.primal_mask)

    # -- metric quantities -------------------------------------------------

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        p, e = self.positions, self.edges
        return np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)

    def mesh_size(self) -> float:
        """Maximal G-edge length (the quantity the convergence bounds call eps)."""
        if len(self.edges) == 0:
            raise StructuralError("map has no edges")
        return float(self.edge_lengths.max())

    def diagonal_lengths(self):
        """Per-face primal and dual diagonal lengths (|v1 v2|, |w1 w2|)."""
        p, f = self.positions, self.faces
        return np.hypot(*(p[f[:, 2]] - p[f[:, 0]]).T), np.hypot(*(p[f[:, 3]] - p[f[:, 1]]).T)

    @cached_property
    def _face_areas(self) -> np.ndarray:
        areas = signed_area(self.positions[self.faces])
        areas.flags.writeable = False
        return areas

    def face_areas(self) -> np.ndarray:
        """Shoelace area per face (half the diagonal product), computed once per map and read-only."""
        return self._face_areas

    def area(self) -> float:
        """Area of the region covered by the map (sum of face areas)."""
        return float(self.face_areas().sum())

    def diameter(self) -> float:
        """Largest distance between two vertices; on an embedded map the
        extreme points of the convex hull lie on the boundary walk."""
        return max_distance(self.positions[self.boundary_walk])

    # -- networks ------------------------------------------------------------

    @cached_property
    def _networks(self):
        dp, dd = self.diagonal_lengths()
        if np.any(dp <= 0) or np.any(dd <= 0):
            raise DegenerateFaceError("face with zero-length diagonal")
        f = self.faces
        pv, dv = self.primal_vertices, self.dual_vertices
        return Network(pv, f[:, 0], f[:, 2], dd / dp), Network(dv, f[:, 1], f[:, 3], dp / dd)

    def primal_network(self) -> Network:
        """Network on the primal vertices, one edge per face, c = |w1w2|/|v1v2|
        (built once per map, with the dual one)."""
        return self._networks[0]

    def dual_network(self) -> Network:
        """Network on the dual vertices, one edge per face, c = |v1v2|/|w1w2|
        (built once per map, with the primal one)."""
        return self._networks[1]

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        verts = [{"id": int(self.ids[i]), "x": float(self.positions[i, 0]),
                  "y": float(self.positions[i, 1]), "color": "primal" if self.primal_mask[i] else "dual"}
                 for i in np.argsort(self.ids)]
        faces = [[int(self.ids[v]) for v in f] for f in self.faces]
        return {"format": "odmap/1", "vertices": verts, "faces": faces}

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_json_dict(), sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrthodiagonalMap":
        if data.get("format", "odmap/1") != "odmap/1":
            raise StructuralError(f"unsupported map format {data.get('format')!r}")
        verts = data["vertices"]
        ids = np.array([v["id"] for v in verts], int)
        if len(set(ids.tolist())) != len(ids):
            raise StructuralError("duplicate vertex ids")
        index_of = {int(v): i for i, v in enumerate(ids)}
        positions = np.array([[v["x"], v["y"]] for v in verts], float).reshape(-1, 2)
        primal = np.array([v["color"] == "primal" for v in verts], bool)
        faces = []
        for f in data["faces"]:
            if len(f) != 4:
                raise StructuralError("face is not a quad")
            try:
                faces.append([index_of[int(v)] for v in f])
            except KeyError as exc:
                raise StructuralError(f"face references unknown vertex id {exc}") from exc
        return cls(positions, primal, np.array(faces, int).reshape(-1, 4), ids=ids)

    @classmethod
    def from_json(cls, path) -> "OrthodiagonalMap":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    # -- submaps ---------------------------------------------------------------

    def submap(self, face_indices) -> "OrthodiagonalMap":
        """Map made of a subset of faces (vertices renumbered, ids preserved)."""
        face_indices = np.asarray(face_indices, int)
        used = np.zeros(self.n_vertices, bool)
        used[self.faces[face_indices]] = True
        used = np.flatnonzero(used)
        remap = -np.ones(self.n_vertices, int)
        remap[used] = np.arange(len(used))
        return OrthodiagonalMap(
            self.positions[used],
            self.primal_mask[used],
            remap[self.faces[face_indices]],
            ids=self.ids[used],
        )


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    checks: dict = field(default_factory=dict)
    worst_orthogonality: float = 0.0
    offending_faces: list = field(default_factory=list)
    offending_edges: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks.values())

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks[name] = (bool(ok), detail)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": {k: {"passed": ok, "detail": d} for k, (ok, d) in self.checks.items()},
            "worst_orthogonality": self.worst_orthogonality,
            "offending_faces": self.offending_faces,
            "offending_edges": [list(e) for e in self.offending_edges],
        }

    def __str__(self) -> str:
        lines = [f"{'PASS' if ok else 'FAIL'}  {k}" + (f"  ({d})" if d else "") for k, (ok, d) in self.checks.items()]
        return "\n".join(lines)


def validate(omap: OrthodiagonalMap, tol: float = 1e-9) -> ValidationReport:
    """Check every defining invariant of an orthodiagonal map.

    Structural problems (dangling ids, non-simple boundary) and geometric
    failures (orthogonality, orientation) are reported under separate check
    names; nothing is raised.
    """
    report = ValidationReport()
    p = omap.positions

    try:
        omap._check_face_indices()
        report.add("structure/face_ids", True)
    except StructuralError as exc:
        report.add("structure/face_ids", False, str(exc))
        return report

    if not np.all(np.isfinite(p)):
        report.add("structure/finite_positions", False, "NaN or infinite coordinate")
        return report
    report.add("structure/finite_positions", True)

    corners = np.sort(omap.faces, axis=1)
    distinct = not np.any(corners[:, 1:] == corners[:, :-1])
    report.add("structure/distinct_corners", distinct)
    if not distinct:
        return report

    # colors alternate primal, dual, primal, dual
    pm = omap.primal_mask
    f = omap.faces
    bad_color = np.flatnonzero(~(pm[f[:, 0]] & ~pm[f[:, 1]] & pm[f[:, 2]] & ~pm[f[:, 3]]))
    report.add("faces/alternating_colors", bad_color.size == 0,
               f"faces {bad_color[:8].tolist()}" if bad_color.size else "")

    # orthogonality of diagonals, relative to diagonal lengths
    dv, dw = p[f[:, 2]] - p[f[:, 0]], p[f[:, 3]] - p[f[:, 1]]
    lv, lw = np.hypot(*dv.T), np.hypot(*dw.T)
    degenerate = np.flatnonzero((lv <= 0) | (lw <= 0))
    report.add("faces/nondegenerate_diagonals", degenerate.size == 0, f"faces {degenerate[:8].tolist()}")
    if degenerate.size:
        return report
    resid = np.abs(np.sum(dv * dw, axis=1)) / (lv * lw)
    report.worst_orthogonality = float(resid.max()) if len(resid) else 0.0
    bad = np.flatnonzero(resid > tol)
    report.offending_faces = bad.tolist()
    report.add(
        "faces/orthogonal_diagonals",
        bad.size == 0,
        f"worst residual {report.worst_orthogonality:.3e}" + (f", faces {bad[:8].tolist()}" if bad.size else ""),
    )

    # counterclockwise orientation
    areas = omap.face_areas()
    bad_orient = np.flatnonzero(areas <= 0)
    report.add("faces/ccw_orientation", bad_orient.size == 0, f"faces {bad_orient[:8].tolist()}")

    # edge/face incidence and boundary structure
    over = np.flatnonzero(omap.edge_face_count > 2)
    # listed in the order their first sides come in the faces
    over = [tuple(e) for e in omap.edges[over[np.argsort(omap._sides.first[over])]].tolist()]
    report.add("edges/at_most_two_faces", not over, f"edges {over[:8]}")
    report.offending_edges = over

    bip = np.flatnonzero(pm[omap.edges[:, 0]] == pm[omap.edges[:, 1]])
    report.add("edges/bipartite", bip.size == 0, f"edges {bip[:8].tolist()}")

    try:
        walk = omap.boundary_walk
        report.add("boundary/single_simple_walk", True, f"length {len(walk)}")
        report.add("boundary/alternating", np.all(pm[walk] != pm[np.roll(walk, -1)]))
    except StructuralError as exc:
        report.add("boundary/single_simple_walk", False, str(exc))

    # connectivity over G-edges, including isolated vertices
    n = omap.n_vertices
    e = omap.edges
    _, comp = csgraph.connected_components(edge_graph(n, e[:, 0], e[:, 1]), directed=False)
    unreachable = n - np.count_nonzero(comp == comp[0]) if n else 0
    report.add("graph/connected", unreachable == 0, f"{unreachable} unreachable vertices")

    return report


# ---------------------------------------------------------------------------
# martingale / orientation diagnostics


def martingale_residuals(omap: OrthodiagonalMap) -> np.ndarray:
    """|sum_Q c(e_Q)(v_Q - v)| at each interior primal vertex.

    The canonical weights make the coordinate functions discrete harmonic,
    so these vanish up to rounding; values are returned unnormalized (callers
    compare against tol * pi(v) * mesh).
    """
    net = omap.primal_network()
    interior, _ = omap.interior_vertices()
    pos = omap.positions
    acc = np.zeros((omap.n_vertices, 2))
    f = omap.faces
    c = net.conductances
    for k in (0, 2):
        v = f[:, k]
        v_opp = f[:, 2 - k]
        np.add.at(acc, v, c[:, None] * (pos[v_opp] - pos[v]))
    return np.hypot(acc[interior, 0], acc[interior, 1])


def orientation_residuals(omap: OrthodiagonalMap) -> np.ndarray:
    """|rot90(unit v1->v2) - unit w1->w2| per face (zero for valid maps)."""
    p = omap.positions
    f = omap.faces
    dv = p[f[:, 2]] - p[f[:, 0]]
    dw = p[f[:, 3]] - p[f[:, 1]]
    dv = dv / np.hypot(*dv.T)[:, None]
    dw = dw / np.hypot(*dw.T)[:, None]
    rot = np.column_stack([-dv[:, 1], dv[:, 0]])
    return np.hypot(*(rot - dw).T)


# ---------------------------------------------------------------------------
# augmented primal/dual pair (exact plane duals)


@dataclass
class AugmentedDuals:
    """Primal/dual pair completed into exact plane duals.

    ``primal`` extends the primal network with one new edge per boundary dual
    vertex, joining the flanking boundary primal vertices.  ``dual_pairs[i]``
    holds the dual endpoints of primal edge ``i``; the apex vertex (a single
    new dual vertex in the outer face) is encoded as ``APEX``.  Augmented
    primal edges carry unit conductance; they exist for the duality
    combinatorics only and never enter energies.
    """

    APEX = -1

    omap: OrthodiagonalMap
    primal: Network
    dual_pairs: np.ndarray          # (m + k, 2) map vertex indices, APEX allowed
    n_core_edges: int               # edges 0..n_core-1 are the original ones
    new_edge_polylines: list        # per new edge: (v_j, bend, v_{j+1}) points


def augmented_duals(omap: OrthodiagonalMap) -> AugmentedDuals:
    """Build the augmented primal graph and its exact plane dual.

    One new primal edge joins each consecutive pair of boundary primal
    vertices inside the outer face (bent within distance mesh of the boundary
    dual vertex it separates from infinity), and one new dual edge joins each
    boundary dual vertex to an apex in the outer face.
    """
    walk = omap.boundary_walk
    pm = omap.primal_mask
    # rotate the walk to start at a primal vertex
    walk = np.roll(walk, -int(np.argmax(pm[walk])))
    if np.any(pm[walk] == pm[np.roll(walk, -1)]):
        raise StructuralError("boundary walk does not alternate primal/dual")

    eps = omap.mesh_size()
    # new primal edge j joins v[j] to v[j + 1] around boundary dual vertex w[j]
    p = omap.positions
    v, w = walk[0::2], walk[1::2]
    v_next = np.roll(v, -1)
    # bend points just outside each w, away from the map, within eps of w
    out = p[w] - p.mean(axis=0)
    nrm = np.hypot(*out.T)[:, None]
    out = np.where(nrm > 0, out / np.where(nrm > 0, nrm, 1.0), [1.0, 0.0])
    t = 0.25 * np.minimum(eps, np.minimum(np.hypot(*(p[v] - p[w]).T), np.hypot(*(p[v_next] - p[w]).T)))

    base = omap.primal_network()
    labels = omap.primal_vertices
    primal = Network(labels, np.concatenate([base.tails_labels, v]),
                     np.concatenate([base.heads_labels, v_next]),
                     np.concatenate([base.conductances, np.ones(len(v))]))
    return AugmentedDuals(
        omap=omap,
        primal=primal,
        dual_pairs=np.vstack([omap.faces[:, [1, 3]],
                              np.column_stack([w, np.full(len(w), AugmentedDuals.APEX)])]),
        n_core_edges=omap.n_faces,
        new_edge_polylines=list(zip(p[v], p[w] + t[:, None] * out, p[v_next])),
    )


# ---------------------------------------------------------------------------
# block decomposition


def _biconnected_components(n: int, edges: np.ndarray):
    """Iterative Hopcroft-Tarjan over the undirected edges (k, 2) of a graph
    on n vertices: (biconnected component of each edge, component count)."""
    adj: list = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append((int(b), idx))
        adj[b].append((int(a), idx))

    visited = np.zeros(n, bool)
    depth = np.zeros(n, int)
    low = np.zeros(n, int)
    comp_of_edge = -np.ones(len(edges), int)
    n_comps = 0
    edge_stack: list = []

    for root in range(n):
        if visited[root] or not adj[root]:
            continue
        stack = [(root, -1, iter(adj[root]))]
        visited[root] = True
        depth[root] = 0
        low[root] = 0
        while stack:
            v, parent_edge, it = stack[-1]
            advanced = False
            for u, eidx in it:
                if eidx == parent_edge:
                    continue
                if not visited[u]:
                    edge_stack.append(eidx)
                    visited[u] = True
                    depth[u] = depth[v] + 1
                    low[u] = depth[u]
                    stack.append((u, eidx, iter(adj[u])))
                    advanced = True
                    break
                elif depth[u] < depth[v] and comp_of_edge[eidx] < 0:
                    edge_stack.append(eidx)
                    low[v] = min(low[v], depth[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= depth[pv]:
                    # pv is a cut vertex (or root); pop one component
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == parent_edge:
                            break
                    for e in comp:
                        comp_of_edge[e] = n_comps
                    n_comps += 1
    return comp_of_edge, n_comps


def blocks(omap: OrthodiagonalMap) -> list:
    """2-connected components of the map, each re-emitted as a map.

    Accepts quad meshes whose outer boundary is not simple (e.g. clipped
    maps with pinch points).  Faces are partitioned among the blocks; the
    union of the returned face sets is the original face set.  Faces joined
    across shared edges make 2-connected pieces (one ``connected_components``
    pass), and the block search runs only on the small bipartite graph of
    pieces and the vertices two or more pieces share: the pieces in one block
    of it, or in two of its blocks that share a piece, make one block of the
    map.  Blocks come largest first, then by least vertex id, then in the
    order a block search of the whole map finds them.  A map whose faces make
    one piece and whose vertices all lie on a face comes back as itself, with
    its cached side table, before the block search; every other block is a
    :meth:`~OrthodiagonalMap.submap`.
    """
    edges, side_edge = omap._sides.edges, omap._sides.edge.reshape(-1, 4)
    if not omap.n_faces:
        return []
    n, n_f, f = omap.n_vertices, omap.n_faces, omap.faces
    # a face that repeats a corner is no cycle: it joins its first side only
    cycle = (f[:, 0] != f[:, 2]) & (f[:, 1] != f[:, 3])
    link = np.where(cycle[:, None], side_edge, side_edge[:, :1])
    n_p, piece = csgraph.connected_components(
        edge_graph(n_f + len(edges), np.repeat(np.arange(n_f), 4), n_f + link.ravel()),
        directed=False)
    if n_p == 1 and np.bincount(f.ravel(), minlength=n).all():
        return [omap]  # one piece is one block; submap(all faces) would be a copy
    piece = piece[n_f:]  # of each edge
    inc = sp.csr_matrix((np.ones(edges.size), (edges.ravel(), np.repeat(piece, 2))), (n, n_p))
    count = np.diff(inc.indptr)  # pieces at each vertex
    shared = np.repeat(count > 1, count)
    p_of, v_of = inc.indices[shared], n_p + np.repeat(np.cumsum(count > 1) - 1, count)[shared]
    h_block, n_h = _biconnected_components(v_of.max(initial=n_p - 1) + 1,
                                           np.column_stack([p_of, v_of]))
    group = csgraph.connected_components(edge_graph(n_p + n_h, p_of, n_p + h_block),
                                         directed=False)[1][piece]  # of each edge
    face_block = group[side_edge[:, 0]]
    order = np.argsort(face_block, kind="stable")
    parts = [(omap.submap(fidx), face_block[fidx[0]])
             for fidx in np.split(order, np.flatnonzero(np.diff(face_block[order])) + 1)]

    def size_and_least_id(part):
        return -part[0].n_faces, int(part[0].ids.min())

    out = []
    for (_, least), tied in itertools.groupby(sorted(parts, key=size_and_least_id),
                                              key=size_and_least_id):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=_search_order(edges, group, int(np.argmax(omap.ids == least)), n))
        out += [block for block, _ in tied]
    return out


def _search_order(edges, edge_block, m, n):
    """Sort key for (block, group label) pairs of blocks that share vertex m,
    in the order :func:`_biconnected_components` on all edges pops them: those
    it enters from m by least neighbour of m, then the one it reached m by."""
    cc = csgraph.connected_components(edge_graph(n, *edges.T), directed=False)[1]
    root = np.argmax(cc == cc[m])  # where the search of m's component starts
    at_m = (edges == m).any(1)
    cc = csgraph.connected_components(edge_graph(n, *edges[~at_m].T), directed=False)[1]

    def key(part):
        nb = (edges[at_m & (edge_block == part[1])].sum(1) - m).min(initial=n - 1)
        return root != m and cc[nb] == cc[root], nb
    return key
