import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph
from scipy.sparse.linalg import cg as sparse_cg

import odmap
from odmap.core_map import martingale_residuals, side_table
from odmap.domains import DomainSpec
from odmap.generators import (
    GeneratorSpec,
    build_generator_level,
    clip_to_domain,
    perturbed,
    rect_nonuniform,
    rotated_grid,
    triangular_disk_triangulation,
)
from odmap.geometry import cross2, seg_points_distance, segments_intersect

from conftest import segments_intersect_scalar


def test_rotated_grid_basics():
    m = rotated_grid("square", 8)
    assert odmap.validate(m, tol=1e-9).passed
    assert m.mesh_size() == pytest.approx(np.sqrt(2) / 8)
    assert np.allclose(m.primal_network().conductances, 1.0)
    delta = odmap.hausdorff_delta(m, odmap.unit_square(), 1000)
    assert delta <= m.mesh_size() + 1e-9


def test_rotated_grid_refinement_halves_eps():
    for n in (4, 8, 16):
        a = rotated_grid("square", n).mesh_size()
        b = rotated_grid("square", 2 * n).mesh_size()
        assert b == pytest.approx(a / 2)


def test_rotated_grid_n2_is_single_diamond():
    m = rotated_grid("square", 2)
    assert m.n_faces == 1
    assert odmap.validate(m).passed


def test_rotated_grid_boundary_walk_counts():
    # the boundary walk covers exactly the edges bordering one face
    m = rotated_grid("square", 8)
    assert len(m.boundary_walk) == np.count_nonzero(m.edge_face_count == 1)
    m2 = rotated_grid("square", 4)
    assert len(m2.boundary_walk) < len(m.boundary_walk)


def test_rotated_grid_on_disk():
    m = rotated_grid("disk", 16)
    assert odmap.validate(m).passed
    assert np.all(np.hypot(*m.positions.T) <= 1 + 1e-12)


def test_rect_uniform_reduces_to_rotated_combinatorics():
    # uniform cuts give the 45-degree lattice: unit conductances, congruent
    # square faces, same local structure as the rotated-grid family
    cuts = np.linspace(0.0, 1.0, 5)
    r = rect_nonuniform(cuts, cuts)
    assert np.allclose(r.primal_network().conductances, 1.0)
    dp, dd = r.diagonal_lengths()
    assert np.allclose(dp, dp[0]) and np.allclose(dd, dp[0])
    assert odmap.validate(r).passed


def test_rect_ratio_two_conductances():
    # x-spacing twice the y-spacing puts both 2 and 1/2 in the weight set
    r = rect_nonuniform([0.0, 2.0, 4.0, 6.0], [0.0, 1.0, 2.0, 3.0])
    cond = set(np.round(r.primal_network().conductances, 9).tolist())
    assert 0.5 in cond and 2.0 in cond
    assert odmap.validate(r).passed


def test_rect_eps_is_max_half_diagonal():
    x = [0.0, 0.5, 0.8, 1.0]
    y = [0.0, 0.3, 1.0]
    r = rect_nonuniform(x, y)
    half_diags = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
            half_diags.append(0.5 * np.hypot(x[i + 1] - x[i], y[j + 1] - y[j]))
    assert r.mesh_size() == pytest.approx(max(half_diags))


def test_rect_rejects_nonmonotone():
    with pytest.raises(odmap.GeometryError):
        rect_nonuniform([0.0, 0.5, 0.4, 1.0], [0.0, 1.0])


def test_perturbed_identity_at_zero(grid16_square):
    assert perturbed(grid16_square, 0.0) is grid16_square


def test_perturbed_heterogeneous_and_valid(grid16_square):
    m = perturbed(grid16_square, 0.3, seed=2)
    assert odmap.validate(m, tol=1e-9).passed
    cond = m.primal_network().conductances
    assert cond.std() > 1e-3  # genuinely heterogeneous weights
    # degree distribution unchanged
    def degrees(mm):
        deg = np.zeros(mm.n_vertices, int)
        for a, b in mm.edges:
            deg[a] += 1
            deg[b] += 1
        return sorted(deg.tolist())
    assert degrees(m) == degrees(grid16_square)


def test_perturbed_raises_when_the_constraints_are_singular(grid16_square, monkeypatch):
    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(odmap.generators, "definite_splu", singular)
    with pytest.raises(odmap.GeometryError, match="rank-deficient"):
        perturbed(grid16_square, 0.3, seed=2)


def test_perturbed_raises_when_the_projection_misses(grid16_square, monkeypatch):
    class NoSolve:  # a factor that solves nothing leaves A g unprojected
        def solve(self, rhs):
            return np.zeros_like(rhs)

    monkeypatch.setattr(odmap.generators, "definite_splu", lambda A: NoSolve())
    with pytest.raises(odmap.GeometryError, match="missed the face constraints"):
        perturbed(grid16_square, 0.3, seed=2)


def _perturbed_by_cg(base, amplitude, seed):
    """perturbed() with each draw projected by CG on A A^T to rtol 1e-13: the
    projection it had before the sparse factor, kept as the oracle."""
    eps, duals, p, f = base.mesh_size(), base.dual_vertices, base.positions, base.faces
    nd = len(duals)
    dual_pos = np.zeros(len(p), int)
    dual_pos[duals] = np.arange(nd)
    t = p[f[:, 2]] - p[f[:, 0]]
    w1, w2 = dual_pos[f[:, 1]], dual_pos[f[:, 3]]
    A = sp.csr_matrix((np.column_stack([t, -t]).ravel(),
                       (np.repeat(np.arange(len(f)), 4),
                        np.column_stack([2 * w2, 2 * w2 + 1, 2 * w1, 2 * w1 + 1]).ravel())),
                      shape=(len(f), 2 * nd))
    AAt = (A @ A.T).tocsr()
    rng = np.random.default_rng(seed)
    scale = float(amplitude)
    for _ in range(20):
        g = rng.standard_normal(2 * nd)
        y, info = sparse_cg(AAt, A @ g, rtol=1e-13, atol=1e-14, maxiter=20 * len(f))
        assert info == 0
        disp = (g - A.T @ y).reshape(nd, 2)
        new_pos = p.copy()
        new_pos[duals] += disp * (scale * eps / np.abs(disp).max())
        cand = odmap.OrthodiagonalMap(new_pos, base.primal_mask, base.faces, ids=base.ids)
        if odmap.validate(cand, tol=1e-9).passed:
            return cand
        scale *= 0.5
    raise AssertionError("no valid perturbation")


L_SHAPE = DomainSpec("polygon", polygon=[[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]])


@pytest.mark.parametrize("domain", ["square", "disk", L_SHAPE], ids=["square", "disk", "L"])
@pytest.mark.parametrize("n", [16, 37, 64, 128])
def test_perturbed_matches_the_cg_projection(domain, n):
    base = rotated_grid(domain, n)
    got, want = perturbed(base, 0.3, seed=n), _perturbed_by_cg(base, 0.3, seed=n)
    assert np.abs(got.positions - want.positions).max() <= 1e-13
    assert np.array_equal(got.faces, base.faces) and np.array_equal(got.ids, base.ids)
    p, f = got.positions, got.faces
    dv, dw = p[f[:, 2]] - p[f[:, 0]], p[f[:, 3]] - p[f[:, 1]]
    assert (np.abs((dv * dw).sum(1)) <= 1e-12 * np.hypot(*dv.T) * np.hypot(*dw.T)).all()


def test_perturbed_shares_the_base_side_table(grid16_square):
    m = perturbed(grid16_square, 0.3, seed=2)
    assert m._sides is grid16_square._sides
    fresh = side_table(m.faces)
    for name, got in m._sides._asdict().items():
        want = getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_perturbed_martingale_still_holds(grid16_square):
    m = perturbed(grid16_square, 0.3, seed=7)
    res = martingale_residuals(m)
    net = m.primal_network()
    interior, _ = m.interior_vertices()
    pi = net.pi[[net.index_of(v) for v in interior]]
    assert np.all(res <= 1e-9 * pi * m.mesh_size())


def test_clip_identity():
    m = rotated_grid("square", 8)
    out = clip_to_domain(m, odmap.unit_square(), buffer=0.0)
    assert len(out) == 1
    assert out[0].n_faces == m.n_faces


def test_clip_respects_buffer():
    m = rotated_grid("square", 16)
    # recenter inside the unit disk
    m = odmap.OrthodiagonalMap(2.0 * (m.positions - 0.5), m.primal_mask, m.faces)
    disk = odmap.unit_disk()
    b = 3 * m.mesh_size()
    out = clip_to_domain(m, disk, buffer=b)
    assert out
    for block in out:
        assert odmap.validate(block).passed
        for i in range(block.n_faces):
            assert disk.face_distance(block.positions[block.faces[i]]) >= b - 1e-12
    # retained face sets are subsets with unchanged conductances
    total = sum(bl.n_faces for bl in out)
    assert total <= m.n_faces


def test_clip_keeps_conductances():
    m = rotated_grid("square", 16)
    m = odmap.OrthodiagonalMap(2.0 * (m.positions - 0.5), m.primal_mask, m.faces)
    base = perturbed(m, 0.25, seed=6)
    cond_by_edge = {}
    net = base.primal_network()
    for t, h, c in zip(net.tails_labels, net.heads_labels, net.conductances):
        cond_by_edge[(min(int(t), int(h)), max(int(t), int(h)))] = c
    for block in clip_to_domain(base, odmap.unit_disk(), buffer=0.1):
        bn = block.primal_network()
        ids = block.ids
        for t, h, c in zip(bn.tails_labels, bn.heads_labels, bn.conductances):
            key = (min(int(ids[t]), int(ids[h])), max(int(ids[t]), int(ids[h])))
            assert c == pytest.approx(cond_by_edge[key], rel=1e-14)


def test_clip_boundary_proximity_certificate():
    m = rotated_grid("square", 16)
    m = odmap.OrthodiagonalMap(2.0 * (m.positions - 0.5), m.primal_mask, m.faces)
    disk = odmap.unit_disk()
    b = 0.2
    eps = m.mesh_size()
    for block in clip_to_domain(m, disk, buffer=b):
        walk = block.boundary_walk
        d = disk.dist_to_boundary(block.positions[walk])
        assert np.all(d <= b + 2 * eps + 1e-12)


def test_clip_pinched_fixture_gives_blocks():
    from odmap.generators import two_diamonds_sharing_vertex

    glued = two_diamonds_sharing_vertex()
    # a domain containing everything: clip is a no-op but must split blocks
    big = DomainSpec("polygon", polygon=[[-10, -10], [10, -10], [10, 10], [-10, 10]])
    out = clip_to_domain(glued, big, buffer=0.0)
    assert len(out) == 2


def test_clip_empty_is_empty_list():
    m = rotated_grid("square", 4)
    tiny = DomainSpec("polygon", polygon=[[10, 10], [11, 10], [11, 11], [10, 11]])
    assert clip_to_domain(m, tiny) == []


def test_hausdorff_zero_against_own_boundary():
    m = rotated_grid("square", 8)
    poly = DomainSpec("polygon", polygon=m.positions[m.boundary_walk])
    assert odmap.hausdorff_delta(m, poly, 1500) <= poly.perimeter() / 1500 + 1e-12


def test_hausdorff_inscribed_square_in_disk():
    # diamond with corners on the unit circle
    m = odmap.diamond_map(scale=0.5)
    delta = odmap.hausdorff_delta(m, odmap.unit_disk(), 4000)
    assert delta == pytest.approx(1 - np.sqrt(2) / 2, abs=2e-3)


def test_hausdorff_vs_packing_certificate(packed500):
    tri, packing, omap = packed500
    delta = odmap.hausdorff_delta(omap, odmap.unit_disk(), 2000)
    assert delta <= 2 * packing.max_boundary_radius + 1e-9


def test_generator_outputs_all_validate():
    specs = [
        GeneratorSpec("rotated_grid", domain="square"),
        GeneratorSpec("rotated_grid", domain="disk"),
        GeneratorSpec("rect_nonuniform", seed=3),
        GeneratorSpec("perturbed", seed=5, params={"amplitude": 0.25}),
        GeneratorSpec("packed_triangulation", n=60, seed=2),
        GeneratorSpec("packed_lattice", n=8),
        GeneratorSpec("double_packed", params={"shape": "k4"}),
    ]
    for spec in specs:
        n = 60 if spec.family == "packed_triangulation" else 8
        omap, domain = build_generator_level(spec, n)
        assert odmap.validate(omap, tol=1e-9).passed, spec.family


def test_triangular_disk_triangulation_valid():
    tri = triangular_disk_triangulation(10)
    tri.validate()
    assert tri.n_vertices > 50
    b = tri.boundary_cycle
    assert len(b) >= 12


# -- array filters against the per-candidate loops they replaced ---------------


def _two_diamonds_oracle():
    """The gluing loop two_diamonds_sharing_vertex was: m2's vertices joined
    to m1's by position."""
    m1, m2 = odmap.diamond_map(), odmap.diamond_map(center=(4.0, 0.0))
    pts, primal = [tuple(p) for p in m1.positions], list(m1.primal_mask)
    index = {p: i for i, p in enumerate(pts)}
    remap = {}
    for i, p in enumerate(m2.positions):
        if tuple(p) not in index:
            index[tuple(p)] = len(pts)
            pts.append(tuple(p))
            primal.append(m2.primal_mask[i])
        remap[i] = index[tuple(p)]
    faces = [list(f) for f in m1.faces] + [[remap[int(v)] for v in f] for f in m2.faces]
    return odmap.OrthodiagonalMap(np.array(pts), np.array(primal, bool), np.array(faces, int))


def test_two_diamonds_matches_gluing_loop():
    from odmap.generators import two_diamonds_sharing_vertex

    got, want = two_diamonds_sharing_vertex(), _two_diamonds_oracle()
    for a, b in ((got.positions, want.positions), (got.primal_mask, want.primal_mask),
                 (got.faces, want.faces)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _triangular_disk_oracle(rows):
    """triangular_disk_triangulation with its per-cell lattice loop."""
    s = 2.0 / rows
    pts, index, faces = [], {}, []
    jmax = int(np.ceil(1.0 / (s * np.sqrt(3) / 2))) + 2
    imax = int(np.ceil(1.0 / s)) + 2
    for j in range(-jmax, jmax + 1):
        for i in range(-imax, imax + 1):
            index[(i, j)] = len(pts)
            pts.append([i * s + (0.5 * s if j % 2 else 0.0), j * s * np.sqrt(3) / 2])
    pts = np.array(pts)
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= 1.0
    for j in range(-jmax, jmax):
        for i in range(-imax, imax):
            a, b, c, d = index[(i, j)], index[(i + 1, j)], index[(i, j + 1)], index[(i + 1, j + 1)]
            for tri in ([(a, b, d), (a, d, c)] if j % 2 else [(a, b, c), (b, d, c)]):
                if all(inside[v] for v in tri):
                    faces.append(tri)
    if not faces:
        return None
    faces = np.array(faces, int)
    a, b, c = pts[faces].transpose(1, 0, 2)
    cw = cross2(b - a, c - a) < 0
    faces[cw] = faces[cw, ::-1]
    sides = side_table(faces)
    incidence = sp.csr_matrix((np.ones(sides.face.size), (sides.face, sides.edge)))
    _, comp = csgraph.connected_components(incidence @ incidence.T, directed=False)
    faces = faces[comp == np.argmax(np.bincount(comp))]
    used = np.unique(faces)
    remap = -np.ones(len(pts), int)
    remap[used] = np.arange(len(used))
    return remap[faces], pts[used]


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 10, 25])
def test_triangular_disk_matches_per_cell_loop(rows):
    want = _triangular_disk_oracle(rows)
    if want is None:
        with pytest.raises(odmap.GeometryError, match="no triangles survive"):
            triangular_disk_triangulation(rows)
        return
    tri = triangular_disk_triangulation(rows)
    for a, b in ((tri.faces, want[0]), (tri.positions, want[1])):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _rotated_grid_oracle(domain, n):
    lo, hi = domain.bounding_box()
    (lo_i, lo_j), (hi_i, hi_j) = ((0, 0), (n, n)) if domain.kind == "square" else \
        (np.floor(lo * n).astype(int), np.ceil(hi * n).astype(int))
    verts, faces = {}, []
    for p in range(lo_i + 1, hi_i):
        for q in range(lo_j + 1, hi_j):
            if (p + q) % 2 != 0:
                continue
            if not domain.face_inside(np.array([[p + 1, q], [p, q + 1], [p - 1, q], [p, q - 1]], float) / n):
                continue
            corners = [(p + 1, q), (p, q + 1), (p - 1, q), (p, q - 1)]
            if (p + 1) % 2 != 0:
                corners = corners[1:] + corners[:1]
            faces.append([verts.setdefault(c, len(verts)) for c in corners])
    idx = np.array(list(verts), float).reshape(-1, 2)
    omap = odmap.OrthodiagonalMap(idx / float(n), idx[:, 0] % 2 == 0, np.array(faces, int))
    return odmap.blocks(omap)


NOTCHED = DomainSpec("polygon", polygon=[[0, 0], [1, 0], [1, 0.4], [0.5, 0.5], [1, 0.9], [0, 1]])


@pytest.mark.parametrize("domain", [odmap.unit_square(), odmap.unit_disk(), NOTCHED],
                         ids=["square", "disk", "polygon"])
def test_rotated_grid_matches_per_candidate_loop(domain):
    for n in (2, 3, 5, 8, 13, 21, 40):
        want = _rotated_grid_oracle(domain, n)
        if not want:
            with pytest.raises(odmap.GeometryError, match="no faces survive"):
                rotated_grid(domain, n)
            continue
        got = rotated_grid(domain, n)
        assert (got.positions == want[0].positions).all()
        assert (got.faces == want[0].faces).all()
        assert (got.primal_mask == want[0].primal_mask).all()


def _rect_nonuniform_oracle(x, y):
    """The per-cell loop rect_nonuniform was: vertices numbered by first
    appearance, corners at grid points and centres at cell midpoints."""
    p, q = len(x) - 1, len(y) - 1
    index, positions, primal = {}, [], []

    def vertex(key, pos, is_primal):
        if key not in index:
            index[key] = len(positions)
            positions.append(pos)
            primal.append(is_primal)
        return index[key]

    def corner(i, j):
        return vertex(("corner", i, j), [x[i], y[j]], True)

    def center(i, j):
        return vertex(("center", i, j), [(x[i] + x[i + 1]) / 2, (y[j] + y[j + 1]) / 2], False)

    faces = []
    for i in range(1, p):
        for j in range(q):
            faces.append([corner(i, j), center(i, j), corner(i, j + 1), center(i - 1, j)])
    for j in range(1, q):
        for i in range(p):
            faces.append([corner(i, j), center(i, j - 1), corner(i + 1, j), center(i, j)])
    if not faces:
        return None
    omap = odmap.OrthodiagonalMap(np.array(positions), np.array(primal, bool), np.array(faces, int))
    return odmap.blocks(omap)[0]


@given(seed=st.integers(0, 10_000), p=st.integers(1, 12), q=st.integers(1, 12))
@example(seed=0, p=1, q=1)
@settings(max_examples=60, deadline=None)
def test_rect_nonuniform_matches_per_cell_loop(seed, p, q):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, p + 1))
    y = np.cumsum(rng.uniform(0.01, 1.0, q + 1))
    want = _rect_nonuniform_oracle(x, y)
    if want is None:
        with pytest.raises(odmap.GeometryError, match="no interior grid edges"):
            rect_nonuniform(x, y)
        return
    got = rect_nonuniform(x, y)
    for a, b in ((got.positions, want.positions), (got.primal_mask, want.primal_mask),
                 (got.faces, want.faces), (got.ids, want.ids)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _clip_oracle(omap, domain, buffer):
    quads = omap.positions[omap.faces]
    keep = [i for i in range(omap.n_faces) if domain.face_inside(quads[i])
            and not (buffer > 0 and domain.face_distance(quads[i]) < buffer)]
    return odmap.blocks(omap.submap(keep)) if keep else []


@pytest.mark.parametrize("domain", [odmap.unit_square(), odmap.unit_disk(), NOTCHED],
                         ids=["square", "disk", "polygon"])
def test_clip_and_face_inside_match_per_face_loop(domain):
    base = perturbed(rotated_grid("square", 20), 0.3, seed=2)
    base = odmap.OrthodiagonalMap(1.6 * (base.positions - 0.3), base.primal_mask, base.faces)
    quads = base.positions[base.faces]
    flags = domain.face_inside(quads)
    assert flags.tolist() == [domain.face_inside(q) for q in quads]
    assert 0 < flags.sum() < len(quads)
    for buffer in (0.0, 0.05, 0.2):
        got, want = clip_to_domain(base, domain, buffer), _clip_oracle(base, domain, buffer)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.positions == w.positions).all() and (g.faces == w.faces).all()
            assert (g.ids == w.ids).all()


@given(seed=st.integers(0, 10_000), size=st.sampled_from([2, 4, 1000]),
       include_endpoints=st.booleans())
@settings(max_examples=40, deadline=None)
def test_segments_intersect_broadcasts_like_scalar_loop(seed, size, include_endpoints):
    # small integer grids make touching, collinear and overlapping pairs common
    rng = np.random.default_rng(seed)
    a, b, c, d = (rng.integers(0, size, (2, 3, 50, 2)).astype(float) / size for _ in range(4))
    a[0, 0, :10] = c[0, 0, :10]  # shared endpoints
    got = segments_intersect(a, b, c, d, include_endpoints=include_endpoints)
    assert got.shape == (2, 3, 50)
    want = [segments_intersect_scalar(*pts, include_endpoints=include_endpoints)
            for pts in zip(*(p.reshape(-1, 2) for p in (a, b, c, d)))]
    assert got.ravel().tolist() == want
    one = segments_intersect(a[0, 0, 0], b[0, 0, 0], c[0, 0, 0], d[0, 0, 0], include_endpoints)
    assert type(one) is bool and one == want[0]
    # broadcasting one segment against a stack
    row = segments_intersect(a[0, 0, 0], b[0, 0, 0], c[0, 0], d[0, 0], include_endpoints)
    assert row.tolist() == [segments_intersect_scalar(a[0, 0, 0], b[0, 0, 0], s, t, include_endpoints)
                            for s, t in zip(c[0, 0], d[0, 0])]


def _star_domain(rng, corners):
    """A random star-shaped polygon about the origin."""
    angle = np.sort(rng.uniform(0, 2 * np.pi, corners))
    radius = rng.uniform(0.2, 1.0, corners)
    return DomainSpec("polygon", polygon=np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]))


def _edges(domain):
    """The polygon's edges as (start, end) pairs, one at a time."""
    return zip(domain.polygon, np.roll(domain.polygon, -1, axis=0))


def _face_inside_loop(domain, quads, tol=1e-12):
    """Corner containment, then one quad side against one polygon edge at a
    time (the oracle for polygon DomainSpec.face_inside)."""
    out = []
    for q in quads:
        inside = bool(domain.contains(q, tol).all())
        if inside:
            inside = not any(segments_intersect_scalar(a, b, q[i], q[(i + 1) % 4], include_endpoints=False)
                             for a, b in _edges(domain) for i in range(4))
        out.append(inside)
    return out


PAIRS = st.sampled_from([1, 7, 64, 1 << 15])  # block sizes patched into geometry._PAIRS


@given(seed=st.integers(0, 10_000), corners=st.integers(3, 12), pairs=PAIRS)
@example(seed=0, corners=0, pairs=1 << 15)  # corners=0: the notched hexagon
@settings(max_examples=20, deadline=None)
def test_polygon_face_inside_matches_edge_loop(seed, corners, pairs):
    from odmap import geometry

    domain = _star_domain(np.random.default_rng(seed), corners) if corners else NOTCHED
    base = perturbed(rotated_grid("square", 12), 0.3, seed=seed)
    quads = 2.4 * (base.positions[base.faces] - 0.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        got = domain.face_inside(quads)
    assert got.tolist() == _face_inside_loop(domain, quads)


def test_notched_grid_face_inside_matches_edge_loop():
    n = 40
    p, q = np.mgrid[-1:n + 2, -1:n + 2].reshape(2, -1)
    centres = np.column_stack([p, q])[(p + q) % 2 == 0]
    quads = (centres[:, None, :] + np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])) / n
    flags = NOTCHED.face_inside(quads)
    assert flags.tolist() == _face_inside_loop(NOTCHED, quads)
    assert 0 < flags.sum() < len(quads)
    assert NOTCHED.face_inside(quads[0]) is bool(flags[0])


def test_face_tests_see_a_slot_between_the_corners():
    """A slot reaches the middle of a square quad through one side: the
    corners are inside and half a side from the boundary, yet the quad
    crosses it (not inside) and meets it (distance 0), as the loops say."""
    w = 0.01
    slot = DomainSpec("polygon", [[-3, -3], [3, -3], [3, -w], [0, -w], [0, w], [3, w], [3, 3], [-3, 3]])
    quads = np.array([[[1, -1], [1, 1], [-1, 1], [-1, -1]], [[1.5, -1], [2.5, -1], [2.5, -0.5], [1.5, -0.5]]], float)
    assert slot.face_inside(quads).tolist() == _face_inside_loop(slot, quads) == [False, True]
    got = slot.face_distance(quads)
    assert got.tolist() == _face_distance_loop(slot, quads) and got[0] == 0.0 < got[1]


def test_face_distance_sees_a_vertex_beside_a_far_side():
    """A wall 3 below a 2-wide quad sets its corner distance r = 3.  A
    spike's tip 2.83 above the middle of the top side, 3.0015 from the
    side's ends, sits just above sqrt(r^2 - 1) = 2.828, the lowest a vertex
    beside the side can be while no nearer to its ends than r, and sets the
    distance: the quad is farther from the boundary than it is wide."""
    spike = DomainSpec("polygon", [[-10, -5], [10, -5], [10, 10], [0.1, 10], [0, 2.83], [-0.1, 10], [-10, 10]])
    quad = np.array([[[-1, -2], [1, -2], [1, 0], [-1, 0]]], float)
    got = spike.face_distance(quad)
    assert got.tolist() == _face_distance_loop(spike, quad)
    assert spike.dist_to_boundary(quad[0]).min() == 3.0 and got[0] == pytest.approx(2.83)


def seg_seg_distance_scalar(a, b, c, d):
    """Distance between segments ab and cd, 0 if they meet, one pair at a
    time (the oracle for polygon DomainSpec.face_distance)."""
    if segments_intersect_scalar(a, b, c, d):
        return 0.0
    return float(seg_points_distance(np.array([a, a, c, c], float), np.array([b, b, d, d], float),
                                     np.array([c, d, a, b], float)).min())


def _face_distance_loop(domain, quads):
    """One quad at a time and, on polygons, one quad side against one
    polygon edge at a time."""
    if domain.kind == "disk":
        return [float(1.0 - np.hypot(q[:, 0], q[:, 1]).max()) for q in quads]
    return [min(seg_seg_distance_scalar(a, b, q[i], q[(i + 1) % 4])
                for a, b in _edges(domain) for i in range(4)) for q in quads]


@given(seed=st.integers(0, 10_000), corners=st.integers(3, 12), pairs=PAIRS)
@example(seed=0, corners=0, pairs=1 << 15)  # the notched hexagon
@example(seed=0, corners=1, pairs=7)  # the unit square
@example(seed=0, corners=2, pairs=1 << 15)  # the unit disk
@settings(max_examples=20, deadline=None)
def test_face_distance_broadcasts_like_edge_loop(seed, corners, pairs):
    from odmap import geometry

    fixed = {0: NOTCHED, 1: odmap.unit_square(), 2: odmap.unit_disk()}
    domain = fixed[corners] if corners in fixed else _star_domain(np.random.default_rng(seed), corners)
    base = perturbed(rotated_grid("square", 12), 0.3, seed=seed)
    # quads inside, across and outside the boundary: touching and crossing
    # pairs score 0, the rest an end-to-segment distance
    quads = 2.4 * (base.positions[base.faces] - 0.5)
    quads = quads[:2 * (len(quads) // 2)]
    want = _face_distance_loop(domain, quads)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        got = domain.face_distance(quads)
    assert got.shape == (len(quads),) and got.tolist() == want
    assert domain.face_distance(quads.reshape(2, -1, 4, 2)).ravel().tolist() == want
    single = [domain.face_distance(q) for q in quads]
    assert all(type(v) is float for v in single) and single == want
    assert (got[domain.face_inside(quads)] >= 0).all()


@pytest.mark.parametrize("method", ["face_inside", "face_distance"])
def test_polygon_face_tests_run_in_bounded_memory(method):
    """The boundary polygon of the 32-grid disk, scaled by 1.05 (180 edges),
    against that map's 1,509 quads: the pair tables are built in blocks, so
    the peak stays at a few MiB, where the edges x quads x sides tables built
    whole take 8.3 MiB each and 58-77 MiB in all."""
    import tracemalloc

    m = rotated_grid("disk", 32)
    domain = DomainSpec("polygon", 1.05 * m.positions[m.boundary_walk])
    quads = m.positions[m.faces]
    tracemalloc.start()
    try:
        getattr(domain, method)(quads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_diam_of_a_many_sided_polygon_is_the_largest_pairwise_distance():
    domain = _star_domain(np.random.default_rng(5), 60)
    p = domain.polygon
    assert domain.diam() == max(np.sqrt(((p[i] - p[j]) ** 2).sum()) for i in range(60) for j in range(60))


@pytest.mark.parametrize("polygon, message", [
    (None, "needs a vertex list"),
    ([[0, 0], [1, 0], [np.nan, 1]], "finite"),
    ([[0, 0], [np.inf, 0], [0, 1]], "finite"),
    ([[0, 0], [1, 0], [2, 0]], "zero area"),
    ([[0, 0], [0.1, 0.3], [0.7, 2.1]], "zero area"),  # collinear up to rounding
    ([[1, 1]] * 4, "zero area"),
], ids=["missing", "nan", "inf", "collinear", "rounded-collinear", "one-point"])
def test_domain_rejects_broken_polygons(polygon, message):
    with pytest.raises(odmap.GeometryError, match=message):
        DomainSpec("polygon", polygon)


def _contains_point_loop(domain, pts, tol):
    """Winding-number containment one point and one polygon edge at a time
    (the oracle for DomainSpec.contains on polygons)."""
    poly = domain.polygon
    inside = np.zeros(len(pts), bool)
    for k, q in enumerate(pts):
        wn = 0
        on_boundary = False
        for i in range(len(poly)):
            a, b = poly[i], poly[(i + 1) % len(poly)]
            if seg_points_distance(a, b, q.reshape(1, 2))[0] <= tol:
                on_boundary = True
                break
            cr = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if a[1] <= q[1]:
                if b[1] > q[1] and cr > 0:
                    wn += 1
            elif b[1] <= q[1] and cr < 0:
                wn -= 1
        inside[k] = on_boundary or wn != 0
    return inside


def _inside_at_extreme_vertices(poly):
    """One point inside the polygon at each of its extreme vertices in four
    generic directions u: on the bisector of the two edges at the vertex,
    half as far along u as the next vertex.  A ray from it in direction -u
    crosses one of those two edges and no other, so its winding number is
    +-1 even when the polygon is a sliver or crosses itself."""
    pts = []
    for t in 0.3 + 0.5 * np.pi * np.arange(4):
        height = poly @ np.array([np.cos(t), np.sin(t)])
        i = int(np.argmin(height))
        gap = np.partition(height, 1)[1] - height[i]
        e1, e2 = poly[i - 1] - poly[i], poly[(i + 1) % len(poly)] - poly[i]
        bisector = e1 / np.linalg.norm(e1) + e2 / np.linalg.norm(e2)
        pts.append(poly[i] + 0.5 * gap * bisector / np.linalg.norm(bisector))
    return np.array(pts)


@given(seed=st.integers(0, 10_000), corners=st.integers(3, 12), tol=st.sampled_from([1e-12, 1e-3]),
       pairs=PAIRS)
@example(seed=0, corners=0, tol=1e-12, pairs=1 << 15)  # corners=0: the notched hexagon
@example(seed=51, corners=3, tol=1e-12, pairs=1 << 15)  # slivers that none of the 300 box samples hit
@example(seed=4688, corners=3, tol=1e-12, pairs=7)
@settings(max_examples=40, deadline=None)
def test_polygon_contains_matches_point_loop(seed, corners, tol, pairs):
    from odmap import geometry

    rng = np.random.default_rng(seed)
    domain = _star_domain(rng, corners) if corners else NOTCHED
    poly = domain.polygon
    k = rng.integers(len(poly), size=60)
    on_edges = poly[k] + rng.random(60)[:, None] * (np.roll(poly, -1, axis=0)[k] - poly[k])
    lo, hi = poly.min(0) - 0.2, poly.max(0) + 0.2
    pts = np.vstack([rng.uniform(lo, hi, (300, 2)), poly, on_edges,
                     on_edges + rng.normal(0.0, tol, (60, 2)), _inside_at_extreme_vertices(poly),
                     lo, hi])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        got = domain.contains(pts, tol)
    assert np.array_equal(got, _contains_point_loop(domain, pts, tol))
    # polygon and edge points, and the four extreme-vertex points, are
    # inside; the corners of the sampling box are outside
    assert got[300:300 + len(poly) + 60].all() and got[-6:-2].all() and not got[-2:].any()


def _hausdorff_delta_loop(omap, domain, samples):
    """hausdorff_delta one map boundary segment at a time (the oracle)."""
    pos, walk = omap.positions, omap.boundary_walk
    segs = [(pos[a], pos[b]) for a, b in zip(walk, np.roll(walk, -1))]
    dom_pts = domain.boundary_samples(samples)
    d1 = np.full(len(dom_pts), np.inf)
    for a, b in segs:
        d1 = np.minimum(d1, seg_points_distance(a, b, dom_pts))
    step = domain.perimeter() / samples
    pieces = []
    for a, b in segs:
        k = max(2, int(np.ceil(float(np.hypot(*(b - a))) / step)) + 1)
        pieces.append(a + np.linspace(0.0, 1.0, k)[:, None] * (b - a))
    pts = np.vstack(pieces)
    if domain.kind == "disk":
        d2 = domain.dist_to_boundary(pts)
    else:
        d2 = np.min([seg_points_distance(a, b, pts) for a, b in _edges(domain)], axis=0)
    return float(max(d1.max(), d2.max()))


@given(domain=st.sampled_from([odmap.unit_square(), odmap.unit_disk(), NOTCHED]),
       n=st.integers(8, 24), seed=st.integers(0, 10_000), samples=st.integers(100, 3000),
       pairs=st.sampled_from([7, 1000, 1 << 15]))
@settings(max_examples=15, deadline=None)
def test_hausdorff_delta_matches_segment_loops(domain, n, seed, samples, pairs):
    # blocks of `pairs` point-segment pairs: 7 splits the segments too
    from odmap import geometry

    m = perturbed(rotated_grid(domain, n), 0.3, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        delta = odmap.hausdorff_delta(m, domain, samples)
    assert delta == _hausdorff_delta_loop(m, domain, samples)


def test_square_dist_to_boundary_is_the_least_edge_distance():
    """On the unit square, bit for bit: inside, beside an edge, beyond a
    corner, on edges and corners, repeated points, NaN and infinities."""
    rng = np.random.default_rng(11)
    u, side = rng.uniform(0.0, 1.0, 200), rng.choice([-1.0, 1.0], (200, 2))
    far = rng.uniform(0.0, 3.0, (200, 2))
    beyond = np.where(side > 0, 1.0 + far, -far)  # x and y both outside
    beside = np.column_stack([u, beyond[:, 1]])
    edges = np.column_stack([u, rng.integers(0, 2, 200)])
    odd = [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf], [np.inf, -np.inf]]
    pts = np.vstack([rng.uniform(0.0, 1.0, (200, 2)), beside, beside[:, ::-1], beyond, edges, edges[:, ::-1],
                     odd, odmap.unit_square().polygon, 1.0 - far, edges[:7], beyond[:7]])
    got = odmap.unit_square().dist_to_boundary(pts)
    want = np.min([seg_points_distance(a, b, pts) for a, b in _edges(odmap.unit_square())], axis=0)
    assert np.isnan(got[1200:1202]).all() and (got[:1200] >= 0).all()
    assert (got[1202:1206] == np.inf).all()  # as on the disk, not the NaN of inf * 0
    # bit for bit off NaN (a NaN's sign depends on the order of the minimum)
    assert got.shape == (len(pts),) and np.array_equal(got, want, equal_nan=True)


def test_polygon_dist_to_boundary_of_infinite_points_is_inf():
    """Polygons with axis-parallel edges (an L) and without (a 40-gon), on
    points with an infinite coordinate, a NaN one, and finite points."""
    t = np.linspace(0.0, 2 * np.pi, 41)[:-1]
    shapes = [[[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], np.column_stack([np.cos(t), np.sin(t)])]
    odd = [[np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf], [0.5, -np.inf], [np.inf, -np.inf], [np.nan, 0.5],
           [0.5, np.nan]]
    finite = np.random.default_rng(3).uniform(-3.0, 3.0, (50, 2))
    for corners in shapes:
        dom = odmap.DomainSpec("polygon", polygon=corners)
        got = dom.dist_to_boundary(np.vstack([odd, finite]))
        assert (got[:5] == np.inf).all() and np.isnan(got[5:7]).all()
        a = dom.polygon
        want = np.min([seg_points_distance(a[k], a[(k + 1) % len(a)], finite) for k in range(len(a))], axis=0)
        assert np.array_equal(got[7:], want)


@given(seed=st.integers(0, 10_000), segments=st.integers(1, 40), points=st.integers(1, 60),
       pairs=st.sampled_from([1, 7, 64, 1 << 15]))
@settings(max_examples=40, deadline=None)
def test_nearest_segment_distance_matches_segment_loop(seed, segments, points, pairs):
    from odmap import geometry

    rng = np.random.default_rng(seed)
    a, b, pts = rng.normal(size=(segments, 2)), rng.normal(size=(segments, 2)), rng.normal(size=(points, 2))
    b[::3] = a[::3]  # segments of length 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        got = geometry.nearest_segment_distance(a, b, pts)
    assert np.array_equal(got, np.min([geometry.seg_points_distance(s, e, pts) for s, e in zip(a, b)], axis=0))


def _closed_walk(rng, n):
    """The ends of a closed polyline of n short segments around the unit
    circle, about a tenth of them of length 0."""
    t = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    a = (1 + 0.05 * rng.normal(size=(n, 1))) * np.column_stack([np.cos(t), np.sin(t)])
    repeat = np.flatnonzero(rng.random(n) < 0.1)
    a[repeat] = a[repeat - 1]
    return a, np.roll(a, -1, axis=0)


@given(seed=st.integers(0, 10_000), segments=st.integers(50, 400), case=st.sampled_from(["walk", "points", "zero"]),
       pairs=st.sampled_from([7, 1000, 1 << 15]))
@example(seed=0, segments=1, case="walk", pairs=7)  # one segment, of length 0
@example(seed=0, segments=2, case="walk", pairs=7)  # a segment there and back
@settings(max_examples=30, deadline=None)
def test_nearest_segment_distance_on_short_segments_matches_segment_loop(seed, segments, case, pairs):
    """Boundary walks of short segments, so the near-pair grid runs: points on
    the segments, within a cell of them, far beyond (where all pairs run) and
    repeated; also no points, one segment and segments all of length 0."""
    from odmap import geometry

    rng = np.random.default_rng(seed)
    a, b = _closed_walk(rng, segments)
    if case == "zero":
        b = a.copy()
    k = rng.integers(segments, size=200)
    on = a[k] + rng.random((200, 1)) * (b[k] - a[k])
    lo, hi = np.minimum(a, b).min(0), np.maximum(a, b).max(0)
    pts = np.vstack([on, on + rng.normal(0.0, 0.05, on.shape), rng.uniform(2 * lo - hi, 2 * hi - lo, (100, 2)),
                     on[:20], a[:5]])
    if case == "points":
        pts = pts[:0]
    want = np.min([seg_points_distance(s, e, pts) for s, e in zip(a, b)], axis=0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_PAIRS", pairs)
        got = geometry.nearest_segment_distance(a, b, pts)
    assert np.array_equal(got, want)


def test_hausdorff_delta_pairs_only_nearby_segments():
    """Of the 252 x 2000 segment-sample pairs of the perturbed 64-grid, the
    domain-to-map distances see under a tenth."""
    from odmap import domains, geometry

    m = perturbed(rotated_grid("square", 64), 0.3, seed=1)
    seen, calls = [], []
    pair_distances, nearest = geometry.seg_points_distance, domains.nearest_segment_distance

    def counting(*args):
        seen.append(np.size(out := pair_distances(*args)))
        return out

    def tagged(a, b, pts):
        before = len(seen)
        out = nearest(a, b, pts)
        calls.append((len(a), sum(seen[before:])))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "seg_points_distance", counting)
        patch.setattr(domains, "nearest_segment_distance", tagged)
        delta = odmap.hausdorff_delta(m, odmap.unit_square(), 2000)
    assert delta == _hausdorff_delta_loop(m, odmap.unit_square(), 2000)
    (d1,) = [n for k, n in calls if k == len(m.boundary_walk) == 252]
    assert 0 < d1 < 0.1 * 252 * 2000
