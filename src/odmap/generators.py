"""Map families for experiments: structured grids, constraint-respecting
perturbations, packed triangulations, and domain clipping."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .core_map import OrthodiagonalMap, blocks, side_table, validate
from .domains import DomainSpec, hausdorff_delta, unit_disk, unit_square
from .errors import GeometryError
from .geometry import cross2
from .network import definite_splu
from .packing import (
    PlanarMap3C,
    Triangulation,
    double_pack,
    orthodiagonal_from_double_packing,
    orthodiagonal_from_packing,
    pack_in_disk,
    triangulation_from_points,
)

__all__ = [
    "DomainSpec", "GeneratorSpec", "unit_disk", "unit_square", "hausdorff_delta",
    "diamond_map", "rotated_grid", "rect_nonuniform", "perturbed", "clip_to_domain",
    "random_delaunay_triangulation", "triangular_disk_triangulation",
    "k4_map", "prism_map", "cube_map", "octahedron_map", "build_generator_level",
]


# ---------------------------------------------------------------------------
# small fixtures


def diamond_map(scale: float = 1.0, center=(0.0, 0.0)) -> OrthodiagonalMap:
    """Four congruent quads around the origin; the smallest interesting map."""
    cx, cy = center
    pts = np.array([
        [0, 0], [2, 0], [0, 2], [-2, 0], [0, -2],   # primal
        [1, 1], [-1, 1], [-1, -1], [1, -1],         # dual
    ], float) * scale + np.array([cx, cy])
    primal = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0], bool)
    faces = np.array([
        [0, 8, 1, 5],
        [0, 5, 2, 6],
        [0, 6, 3, 7],
        [0, 7, 4, 8],
    ])
    return OrthodiagonalMap(pts, primal, faces)


def two_diamonds_sharing_vertex() -> OrthodiagonalMap:
    """Two diamond maps glued at one primal vertex (non-simple boundary)."""
    m1, m2 = diamond_map(), diamond_map(center=(4.0, 0.0))
    # m2's west corner 3 at (2, 0) is m1's east corner 1
    new = np.arange(m2.n_vertices) != 3
    remap = np.where(new, m1.n_vertices + np.cumsum(new) - 1, 1)
    return OrthodiagonalMap(np.vstack([m1.positions, m2.positions[new]]),
                            np.concatenate([m1.primal_mask, m2.primal_mask[new]]),
                            np.vstack([m1.faces, remap[m2.faces]]))


# ---------------------------------------------------------------------------
# structured grids


def rotated_grid(domain: DomainSpec | str, n: int) -> OrthodiagonalMap:
    """45-degree rotated square lattice clipped to the domain.

    All faces are congruent squares with axis-parallel diagonals of length
    2/n; the edge length (mesh size) is sqrt(2)/n and every conductance is 1.
    """
    if isinstance(domain, str):
        domain = DomainSpec(domain)
    if n < 2:
        raise GeometryError("need n >= 2")
    if domain.kind == "square":
        lo_i, hi_i = 0, n
        lo_j, hi_j = 0, n
    else:
        lo, hi = domain.bounding_box()
        lo_i, lo_j = np.floor(lo * n).astype(int)
        hi_i, hi_j = np.ceil(hi * n).astype(int)
    P, Q = np.meshgrid(np.arange(lo_i + 1, hi_i), np.arange(lo_j + 1, hi_j), indexing="ij")
    even = (P + Q) % 2 == 0
    P, Q = P[even], Q[even]
    # candidate diamonds around the lattice centres (p, q), corners E, N, W, S
    corners = np.stack([np.stack(c, -1) for c in ((P + 1, Q), (P, Q + 1), (P - 1, Q), (P, Q - 1))], 1)
    corners = corners[domain.face_inside(corners / n)]
    # v1 must be primal: even first coordinate
    corners = np.where(corners[:, :1, :1] % 2 != 0, np.roll(corners, -1, axis=1), corners)
    # vertex ids in order of first appearance
    corners = corners.reshape(-1, 2)
    first, faces = _first_appearance((corners[:, 0] - lo_i) * (hi_j - lo_j + 1)
                                     + corners[:, 1] - lo_j)
    lattice = corners[first]
    omap = OrthodiagonalMap(lattice / float(n), lattice[:, 0] % 2 == 0, faces.reshape(-1, 4))
    bl = blocks(omap)
    if not bl:
        raise GeometryError("no faces survive clipping; increase n")
    return bl[0]


def rect_nonuniform(x_cuts, y_cuts) -> OrthodiagonalMap:
    """Rectangle mesh with primal vertices at grid corners and dual vertices
    at cell centers; diagonals are the axis-parallel segments, so unequal
    cut spacings produce genuinely heterogeneous conductances."""
    x = np.asarray(x_cuts, float)
    y = np.asarray(y_cuts, float)
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise GeometryError("cut sequences must be strictly increasing")
    p, q = len(x) - 1, len(y) - 1
    if p < 1 or q < 1:
        raise GeometryError("need at least one cell per direction")

    corner = np.arange((p + 1) * (q + 1)).reshape(p + 1, q + 1)
    center = corner.size + np.arange(p * q).reshape(p, q)
    # vertical interior grid edges: quad [bottom, right center, top, left center]
    vertical = np.stack([corner[1:-1, :-1], center[1:], corner[1:-1, 1:], center[:-1]], -1)
    # horizontal interior grid edges, row by row: quad [left, below center, right, above center]
    horizontal = np.stack([corner[:-1, 1:-1], center[:, :-1], corner[1:, 1:-1], center[:, 1:]], -1)
    keys = np.concatenate([vertical.reshape(-1, 4), horizontal.transpose(1, 0, 2).reshape(-1, 4)])
    if not len(keys):
        raise GeometryError("mesh has no interior grid edges; refine the cuts")
    points = np.concatenate([np.stack(np.meshgrid(u, v, indexing="ij"), -1).reshape(-1, 2) for u, v
                             in ((x, y), ((x[:-1] + x[1:]) / 2, (y[:-1] + y[1:]) / 2))])
    first, faces = _first_appearance(keys.ravel())
    used = keys.ravel()[first]
    omap = OrthodiagonalMap(points[used], used < corner.size, faces.reshape(-1, 4))
    return blocks(omap)[0]


def _first_appearance(keys):
    """For a 1-d int array: the index of the first appearance of each distinct
    value, in order of first appearance, and each entry's rank in that order."""
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inv]


# ---------------------------------------------------------------------------
# constraint-respecting perturbation


def perturbed(base: OrthodiagonalMap, amplitude: float, seed: int = 0) -> OrthodiagonalMap:
    """Random orthogonality-preserving displacement of the dual vertices.

    Moving a dual vertex w is admissible only along directions orthogonal to
    the primal diagonals of every face containing w, and the moves of the two
    dual endpoints of a face are coupled; the set of admissible displacement
    fields is the null space of one linear constraint per face, A d = 0.  A
    Gaussian draw g is projected onto it, g - A^T (A A^T)^-1 A g, through one
    sparse factor of A A^T (:func:`~odmap.network.definite_splu`), shared by
    every attempt: A A^T depends only on the primal diagonals, which do not
    move.  The projection is scaled so no dual vertex moves farther than
    amplitude * mesh, and halved until the map validates.  The result shares
    the base map's faces, side table, boundary cycle and structural checks,
    so each attempt runs only the geometric checks of
    :func:`~odmap.core_map.validate`.  amplitude = 0 returns the base map.
    """
    if amplitude == 0:
        return base
    eps, duals, p, f = base.mesh_size(), base.dual_vertices, base.positions, base.faces
    nd = len(duals)
    dual_pos = np.zeros(len(p), int)
    dual_pos[duals] = np.arange(nd)
    # one row per face: (d_{w2} - d_{w1}) . t = 0
    t = p[f[:, 2]] - p[f[:, 0]]
    w1, w2 = dual_pos[f[:, 1]], dual_pos[f[:, 3]]
    cols = np.column_stack([2 * w2, 2 * w2 + 1, 2 * w1, 2 * w1 + 1]).ravel()
    A = sp.csr_matrix((np.column_stack([t, -t]).ravel(), (np.repeat(np.arange(len(f)), 4), cols)),
                      shape=(len(f), 2 * nd))
    try:
        lu = definite_splu((A @ A.T).tocsc())
    except RuntimeError as exc:  # exactly singular: the constraints are dependent
        raise GeometryError(f"the {len(f)} face constraints of the perturbation are "
                            f"rank-deficient: A A^T has no factor ({exc})") from exc

    _ = base._structure  # computes the boundary cycle too, if there is one
    shared = {k: v for k, v in vars(base).items() if k in ("_sides", "_boundary_cycle", "_structure")}
    rng = np.random.default_rng(seed)
    scale = float(amplitude)
    for _ in range(20):
        g = rng.standard_normal(2 * nd)
        Ag = A @ g
        d = g - A.T @ lu.solve(Ag)
        if not np.linalg.norm(A @ d) <= 1e-13 * np.linalg.norm(Ag):  # a NaN fails too
            raise GeometryError("the projection missed the face constraints: they are "
                                "rank-deficient to rounding")
        mx = np.abs(d).max()
        if mx < 1e-12:
            warnings.warn("base map admits no dual-vertex perturbation; returning base")
            return base
        new_pos = p.copy()
        new_pos[duals] += d.reshape(nd, 2) * (scale * eps / mx)
        cand = OrthodiagonalMap(new_pos, base.primal_mask.copy(), base.faces.copy(),
                                ids=base.ids.copy())
        vars(cand).update(shared)  # the same faces and colours
        if validate(cand, tol=1e-9).passed:
            return cand
        scale *= 0.5
    raise GeometryError("could not find a valid perturbation; amplitude too large")


# ---------------------------------------------------------------------------
# clipping to a domain


def clip_to_domain(omap: OrthodiagonalMap, domain: DomainSpec, buffer: float = 0.0) -> list:
    """Keep the faces whose closure sits inside the domain at distance at
    least ``buffer`` from its boundary, and return the blocks of the kept
    subgraph (largest first).  An empty list means nothing survived."""
    quads = omap.positions[omap.faces]
    keep = domain.face_inside(quads)
    if buffer > 0:
        keep[keep] = ~(domain.face_distance(quads[keep]) < buffer)
    if not keep.any():
        return []
    return blocks(omap.submap(np.flatnonzero(keep)))


# ---------------------------------------------------------------------------
# triangulation sources for the packing families


def random_delaunay_triangulation(n_points: int, seed: int = 0) -> Triangulation:
    """Delaunay triangulation of seeded uniform points in the unit disk."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random(n_points))
    t = 2 * np.pi * rng.random(n_points)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return triangulation_from_points(pts)


def triangular_disk_triangulation(rows: int) -> Triangulation:
    """Triangular-lattice triangulation clipped to the unit disk.

    ``rows`` controls resolution (lattice spacing ~ 2/rows); the boundary
    hugs the circle, which makes these good disk approximants.
    """
    s = 2.0 / rows
    jmax = int(np.ceil(1.0 / (s * np.sqrt(3) / 2))) + 2
    imax = int(np.ceil(1.0 / s)) + 2
    j, i = np.meshgrid(np.arange(-jmax, jmax + 1), np.arange(-imax, imax + 1), indexing="ij")
    pts = np.column_stack([(i * s + np.where(j % 2, 0.5 * s, 0.0)).ravel(),
                           (j * s * np.sqrt(3) / 2).ravel()])
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    # two triangles per lattice cell; neighbor pattern depends on row parity
    k = np.arange(len(pts)).reshape(j.shape)
    a, b, c, d = k[:-1, :-1], k[:-1, 1:], k[1:, :-1], k[1:, 1:]
    tris = np.where((np.arange(-jmax, jmax) % 2 == 1)[:, None, None, None],
                    np.stack([np.stack([a, b, d], -1), np.stack([a, d, c], -1)], -2),
                    np.stack([np.stack([a, b, c], -1), np.stack([b, d, c], -1)], -2)).reshape(-1, 3)
    faces = tris[inside[tris].all(1)]
    if not len(faces):
        raise GeometryError("no triangles survive the disk clip; increase rows")
    a, b, c = pts[faces].transpose(1, 0, 2)
    cw = cross2(b - a, c - a) < 0
    faces[cw] = faces[cw, ::-1]
    # keep the largest edge-connected component of triangles: two triangles
    # are adjacent when they share a side
    sides = side_table(faces)
    incidence = sp.csr_matrix((np.ones(sides.face.size), (sides.face, sides.edge)))
    _, comp = csgraph.connected_components(incidence @ incidence.T, directed=False)
    best = np.argmax(np.bincount(comp))
    faces = faces[comp == best]
    used, faces = np.unique(faces, return_inverse=True)
    return Triangulation(len(used), faces.reshape(-1, 3), positions=pts[used]).validate()


# ---------------------------------------------------------------------------
# 3-connected planar map fixtures


def k4_map() -> PlanarMap3C:
    return PlanarMap3C(4, [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])


def prism_map() -> PlanarMap3C:
    return PlanarMap3C(6, [
        [0, 2, 1],            # outer
        [0, 1, 4, 3],
        [1, 2, 5, 4],
        [2, 0, 3, 5],
        [3, 4, 5],
    ])


def cube_map() -> PlanarMap3C:
    return PlanarMap3C(8, [
        [0, 3, 2, 1],         # outer (bottom)
        [4, 5, 6, 7],
        [0, 1, 5, 4],
        [1, 2, 6, 5],
        [2, 3, 7, 6],
        [3, 0, 4, 7],
    ])


def octahedron_map() -> PlanarMap3C:
    return PlanarMap3C(6, [
        [0, 2, 1],            # outer
        [0, 1, 4],
        [1, 2, 5],
        [2, 0, 3],
        [0, 4, 3],
        [1, 5, 4],
        [2, 3, 5],
        [3, 4, 5],
    ])


# the 3-connected fixtures by name (the double_packed family and the CLI)
SHAPES = {"k4": k4_map, "prism": prism_map, "cube": cube_map, "octahedron": octahedron_map}


# ---------------------------------------------------------------------------
# generator specs (CLI / sweep front end)


@dataclass
class GeneratorSpec:
    """Declarative description of a map family for sweeps and the CLI."""

    family: str
    n: int = 8
    seed: int = 0
    domain: str = "square"
    params: dict = field(default_factory=dict)

    def domain_spec(self) -> DomainSpec:
        if self.domain == "disk":
            return unit_disk()
        if self.domain == "square":
            return unit_square()
        raise GeometryError(f"unknown domain {self.domain!r}")

    def to_json_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "seed": self.seed,
                "domain": self.domain, "params": self.params}


def build_generator_level(spec: GeneratorSpec, n: int | None = None):
    """Build one map of the family at size n; returns (map, domain)."""
    n = spec.n if n is None else n
    fam = spec.family
    if fam == "rotated_grid":
        dom = spec.domain_spec()
        return rotated_grid(dom, n), dom
    if fam == "rect_nonuniform":
        rng = np.random.default_rng(spec.seed)
        jitter = spec.params.get("jitter", 0.3)
        x = _jittered_cuts(n, jitter, rng)
        y = _jittered_cuts(n, jitter, rng)
        return rect_nonuniform(x, y), unit_square()
    if fam == "perturbed":
        dom = spec.domain_spec()
        base = rotated_grid(dom, n)
        amp = spec.params.get("amplitude", 0.3)
        return perturbed(base, amp, seed=spec.seed), dom
    if fam == "packed_triangulation":
        tri = random_delaunay_triangulation(n, seed=spec.seed)
        packing = pack_in_disk(tri, tol=spec.params.get("tol", 1e-7))
        return orthodiagonal_from_packing(tri, packing), unit_disk()
    if fam == "packed_lattice":
        tri = triangular_disk_triangulation(n)
        packing = pack_in_disk(tri, tol=spec.params.get("tol", 1e-7))
        return orthodiagonal_from_packing(tri, packing), unit_disk()
    if fam == "double_packed":
        shape = spec.params.get("shape", "cube")
        if shape not in SHAPES:
            raise GeometryError(f"unknown double_packed shape {shape!r}")
        h = SHAPES[shape]()
        dp = double_pack(h, outer_face=0, tol=spec.params.get("tol", 1e-8))
        return orthodiagonal_from_double_packing(h, dp), unit_disk()
    raise GeometryError(f"unknown family {fam!r}")


def _jittered_cuts(n: int, jitter: float, rng) -> np.ndarray:
    cuts = np.linspace(0.0, 1.0, n + 1)
    inner = cuts[1:-1] + jitter * (rng.random(n - 1) - 0.5) / n
    return np.concatenate([[0.0], np.sort(inner), [1.0]])
