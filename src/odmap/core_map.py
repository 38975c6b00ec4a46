"""Orthodiagonal maps: embedded bipartite quad meshes with orthogonal diagonals.

A map stores vertex positions, a primal/dual coloring, and a list of quad
faces ``[v1, w1, v2, w2]`` traversed counterclockwise with ``v1, v2`` primal
and ``w1, w2`` dual.  Everything else (edges, boundary walk, vertex
partitions, the weighted primal/dual networks) is derived deterministically
from the face list.

Faces are the single source of truth, and :func:`side_table` (one stable sort
of the face sides by edge) is the one derivation of edges and twins from a
face list, for maps, triangulations and 3-connected maps alike; incidence
and boundary are array operations on it, and blocks one Hopcroft-Tarjan
search over its edges when the faces make more than one piece.  A
packing's map, one quad per edge of its parent, is built with its table
(:func:`paired_side_table`) and boundary cycle from the parent's, and, from
a validated triangulation, with :func:`validate`'s structural checks
passed.  Edge ``i`` of the
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


def _face_cycles(faces):
    """tail, head, face and nxt of :class:`SideTable` for an (m, k) face array or a ragged list."""
    if isinstance(faces, np.ndarray):
        lens = np.full(len(faces), faces.shape[1])
        tail = np.asarray(faces, int).ravel()
    else:
        lens = np.array([len(f) for f in faces], int)
        tail = np.fromiter(itertools.chain.from_iterable(faces), int, lens.sum())
    ends = np.cumsum(lens)
    nxt = np.arange(1, tail.size + 1)
    nxt[ends - 1] = ends - lens
    return tail, tail[nxt], np.repeat(np.arange(len(lens)), lens), nxt


def side_table(faces) -> SideTable:
    """:class:`SideTable` of an (m, k) face array or a ragged list of faces.

    One stable argsort of the undirected side keys groups the sides by edge,
    in side order within each edge.
    """
    tail, head, face, nxt = _face_cycles(faces)
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


def paired_side_table(faces, a: np.ndarray, b: np.ndarray) -> SideTable:
    """:func:`side_table` of faces whose every edge has one or two sides,
    given as a[e] and b[e] (-1 for none) for each edge e in any order: one
    argsort of the distinct edge keys in place of the sides'."""
    tail, head, face, nxt = _face_cycles(faces)
    lo, hi = np.minimum(tail[a], head[a]), np.maximum(tail[a], head[a])
    order = np.argsort(lo * (int(hi.max(initial=0)) + 1) + hi)
    a, b, both = a[order], b[order], b[order] >= 0
    rows = np.arange(a.size)
    edge = np.empty_like(tail)
    edge[a], edge[b[both]] = rows, rows[both]
    twin = np.full_like(tail, -1)
    twin[a[both]], twin[b[both]] = b[both], a[both]
    return SideTable(tail, head, face, nxt, edge, twin, np.column_stack([lo[order], hi[order]]),
                     1 + both, np.where(both, np.minimum(a, b), a))


def boundary_cycle(s: SideTable, n: int) -> np.ndarray:
    """The one cycle of the edges with a single side, from its least vertex
    toward the smaller of its two neighbours, read from the side table of
    faces on n vertices.

    Raises StructuralError when those edges are not a single simple cycle.
    """
    bedges = s.edges[s.count == 1]
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
    graph = edge_graph(n, np.concatenate([a, b]), np.concatenate([b, a]))
    walk = csgraph.depth_first_order(graph, a.min(), return_predecessors=False).astype(int)
    if len(walk) != len(a):
        raise StructuralError("boundary edges form more than one cycle")
    return walk


class OrthodiagonalMap:
    """Finite plane quad mesh with orthogonal diagonals.

    The constructor stores raw data without validating it; run
    :func:`validate` to obtain a full report, or access derived attributes
    (which raise ``StructuralError`` on combinatorially broken input).
    Instances are immutable once built.
    """

    _elimination = None  # a packed map's interior, as primal-network indices, in its radius factor's order

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
    def _boundary_cycle(self) -> np.ndarray:
        """:func:`boundary_cycle` of the faces: :attr:`boundary_walk` before
        it is oriented."""
        return boundary_cycle(self._sides, self.n_vertices)

    @staticmethod
    def _least_first(cycle) -> np.ndarray:
        """A simple cycle, given either way round, as :attr:`_boundary_cycle` gives it."""
        cycle = np.roll(cycle, -int(np.argmin(cycle)))
        return cycle if cycle[1] < cycle[-1] else np.roll(cycle[::-1], 1)

    @cached_property
    def boundary_walk(self) -> np.ndarray:
        """Cyclic vertex sequence of the outer face, oriented counterclockwise.

        Raises StructuralError when the boundary is not a single simple
        closed walk.
        """
        walk = self._boundary_cycle
        return walk[::-1].copy() if signed_area(self.positions[walk]) < 0 else walk

    # validate's checks that read the faces and colours alone
    _structure = cached_property(lambda self: _structural_checks(self))

    @cached_property
    def boundary_vertex_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_vertices, bool)
        mask[self.boundary_walk] = True
        mask.flags.writeable = False
        return mask

    @property
    def primal_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.primal_mask)

    @property
    def dual_vertices(self) -> np.ndarray:
        return np.flatnonzero(~self.primal_mask)

    @cached_property
    def _vertex_classes(self) -> tuple:
        """Boundary primal, boundary dual, interior primal, interior dual vertices: ascending, read-only."""
        m, p = self.boundary_vertex_mask, self.primal_mask
        classes = tuple(np.flatnonzero(c) for c in (m & p, m & ~p, ~m & p, ~m & ~p))
        for c in classes:
            c.flags.writeable = False
        return classes

    def boundary_vertices(self):
        """(boundary primal, boundary dual) index arrays, computed once per map and read-only."""
        return self._vertex_classes[:2]

    def interior_vertices(self):
        """(interior primal, interior dual) index arrays, computed once per map and read-only."""
        return self._vertex_classes[2:]

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

    _diameter = cached_property(lambda self: max_distance(self.positions[self.boundary_walk]))

    def diameter(self) -> float:
        """Largest distance between two vertices (computed once per map); on an
        embedded map the extreme points of the convex hull lie on the boundary walk."""
        return self._diameter

    # -- networks ------------------------------------------------------------

    def _network(self, k: int) -> Network:
        """Network on the diagonals k, k + 2 of the faces (0 primal, 1 dual), c = |other| / |own|."""
        lengths = self.diagonal_lengths()
        if np.any(lengths[0] <= 0) or np.any(lengths[1] <= 0):
            raise DegenerateFaceError("face with zero-length diagonal")
        net = Network(self.dual_vertices if k else self.primal_vertices, self.faces[:, k],
                      self.faces[:, k + 2], lengths[1 - k] / lengths[k])
        net._elimination = None if k else self._elimination  # the primal one inherits the map's
        return net

    _primal_network = cached_property(lambda self: self._network(0))
    _dual_network = cached_property(lambda self: self._network(1))

    def primal_network(self) -> Network:
        """Network on the primal vertices, one edge per face, c = |w1w2|/|v1v2|
        (built once per map, on first use)."""
        return self._primal_network

    def dual_network(self) -> Network:
        """Network on the dual vertices, one edge per face, c = |v1v2|/|w1w2|
        (built once per map, on first use)."""
        return self._dual_network

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
    names; nothing is raised.  The structural checks read the faces and
    colours alone, so a map runs them once and keeps them: a perturbed map
    shares its base's (the same faces and colours), and a map from a
    validated triangulation is built with them passed (each holds by
    construction).  The geometric ones read the positions on every call.
    """
    structure = omap._structure
    report = ValidationReport()

    def take(*names):  # structural checks, as far as they went
        report.checks.update((k, structure.checks[k]) for k in names if k in structure.checks)

    take("structure/face_ids")
    if not report.passed:
        return report
    p, f = omap.positions, omap.faces
    if not np.all(np.isfinite(p)):
        report.add("structure/finite_positions", False, "NaN or infinite coordinate")
        return report
    report.add("structure/finite_positions", True)
    take("structure/distinct_corners", "faces/alternating_colors")
    if not report.checks["structure/distinct_corners"][0]:
        return report

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

    take("edges/at_most_two_faces", "edges/bipartite", "boundary/single_simple_walk",
         "boundary/alternating", "graph/connected")
    report.offending_edges = list(structure.offending_edges)
    return report


def _structural_checks(omap: OrthodiagonalMap) -> ValidationReport:
    """The checks of :func:`validate` that read the faces and colours alone,
    in its order, up to the first failure that ends its report."""
    report = ValidationReport()
    try:
        omap._check_face_indices()
        report.add("structure/face_ids", True)
    except StructuralError as exc:
        report.add("structure/face_ids", False, str(exc))
        return report

    corners = np.sort(omap.faces, axis=1)
    distinct = not np.any(corners[:, 1:] == corners[:, :-1])
    report.add("structure/distinct_corners", distinct)
    if not distinct:
        return report

    # colors alternate primal, dual, primal, dual
    pm, f = omap.primal_mask, omap.faces
    bad_color = np.flatnonzero(~(pm[f[:, 0]] & ~pm[f[:, 1]] & pm[f[:, 2]] & ~pm[f[:, 3]]))
    report.add("faces/alternating_colors", bad_color.size == 0,
               f"faces {bad_color[:8].tolist()}" if bad_color.size else "")

    # edge/face incidence and boundary structure
    over = np.flatnonzero(omap.edge_face_count > 2)
    # listed in the order their first sides come in the faces
    over = [tuple(e) for e in omap.edges[over[np.argsort(omap._sides.first[over])]].tolist()]
    report.add("edges/at_most_two_faces", not over, f"edges {over[:8]}")
    report.offending_edges = over

    bip = np.flatnonzero(pm[omap.edges[:, 0]] == pm[omap.edges[:, 1]])
    report.add("edges/bipartite", bip.size == 0, f"edges {bip[:8].tolist()}")

    try:
        walk = omap._boundary_cycle
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


def _sound_structure(walk_length: int) -> ValidationReport:
    """:func:`_structural_checks` of a map built to pass them all."""
    return ValidationReport({"structure/face_ids": (True, ""), "structure/distinct_corners": (True, ""),
                             "faces/alternating_colors": (True, ""),
                             "edges/at_most_two_faces": (True, "edges []"), "edges/bipartite": (True, "edges []"),
                             "boundary/single_simple_walk": (True, f"length {walk_length}"),
                             "boundary/alternating": (True, ""),
                             "graph/connected": (True, "0 unreachable vertices")})


# ---------------------------------------------------------------------------
# martingale / orientation diagnostics


def martingale_residuals(omap: OrthodiagonalMap) -> np.ndarray:
    """|sum_Q c(e_Q)(v_Q - v)| at each interior primal vertex.

    The canonical weights make the coordinate functions discrete harmonic,
    so these vanish up to rounding; values are returned unnormalized (callers
    compare against tol * pi(v) * mesh).
    """
    interior, _ = omap.interior_vertices()
    pos, f, c = omap.positions, omap.faces, omap.primal_network().conductances
    acc = np.zeros((omap.n_vertices, 2))
    for k in (0, 2):
        v, v_opp = f[:, k], f[:, 2 - k]
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
    on n vertices: (biconnected component of each edge, component count).
    The search state lives in Python lists, which index faster than numpy
    scalars one entry at a time."""
    adj: list = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges.tolist()):
        adj[a].append((b, idx))
        adj[b].append((a, idx))

    visited = [False] * n
    depth = [0] * n
    low = [0] * n
    comp_of_edge = [-1] * len(edges)
    n_comps = 0
    edge_stack: list = []

    for root in range(n):
        if visited[root] or not adj[root]:
            continue
        stack = [(root, -1, iter(adj[root]))]
        visited[root] = True
        while stack:
            v, parent_edge, it = stack[-1]
            advanced = False
            for u, eidx in it:
                if eidx == parent_edge:
                    continue
                if not visited[u]:
                    edge_stack.append(eidx)
                    visited[u] = True
                    depth[u] = low[u] = depth[v] + 1
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
                    while edge_stack:
                        e = edge_stack.pop()
                        comp_of_edge[e] = n_comps
                        if e == parent_edge:
                            break
                    n_comps += 1
    return np.array(comp_of_edge, int), n_comps


def blocks(omap: OrthodiagonalMap) -> list:
    """2-connected components of the map, each re-emitted as a map.

    Accepts quad meshes whose outer boundary is not simple (e.g. clipped
    maps with pinch points).  Faces are partitioned among the blocks; the
    union of the returned face sets is the original face set.  A map whose
    faces make one edge-connected piece (one ``connected_components`` pass
    over faces joined across shared edges) and whose vertices all lie on a
    face is one block, and comes back as itself, with its cached side table.
    Any other map gets one Hopcroft-Tarjan search over its edges; each face
    goes to the block of its first side (a face that repeats a corner is no
    cycle, so its sides may lie in different blocks), and each block is a
    :meth:`~OrthodiagonalMap.submap`.  Blocks come largest first, then by
    least vertex id, then in the order the search finds them.
    """
    edges, side_edge = omap._sides.edges, omap._sides.edge.reshape(-1, 4)
    if not omap.n_faces:
        return []
    n, n_f, f = omap.n_vertices, omap.n_faces, omap.faces
    # a face that repeats a corner is no cycle: it joins its first side only
    cycle = (f[:, 0] != f[:, 2]) & (f[:, 1] != f[:, 3])
    link = np.where(cycle[:, None], side_edge, side_edge[:, :1])
    n_p = csgraph.connected_components(
        edge_graph(n_f + len(edges), np.repeat(np.arange(n_f), 4), n_f + link.ravel()),
        directed=False)[0]
    if n_p == 1 and np.bincount(f.ravel(), minlength=n).all():
        return [omap]  # one piece is one block; submap(all faces) would be a copy
    face_block = _biconnected_components(n, edges)[0][side_edge[:, 0]]
    order = np.argsort(face_block, kind="stable")
    parts = [omap.submap(fidx)
             for fidx in np.split(order, np.flatnonzero(np.diff(face_block[order])) + 1)]
    return sorted(parts, key=lambda b: (-b.n_faces, int(b.ids.min())))
