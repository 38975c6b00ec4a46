import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmap
from odmap.core_map import martingale_residuals
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
    assert len(m.boundary_walk) == len(m.boundary_edges)
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


def test_perturbed_raises_when_the_projection_does_not_converge(grid16_square, monkeypatch):
    monkeypatch.setattr(odmap.generators, "sparse_cg",
                        lambda A, b, **kw: (np.zeros_like(b), 1))
    with pytest.raises(odmap.GeometryError, match="did not converge"):
        perturbed(grid16_square, 0.3, seed=2)


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
            assert disk.face_distance(block.face_polygon(i)) >= b - 1e-12
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


def _clip_oracle(omap, domain, buffer):
    keep = [i for i in range(omap.n_faces) if domain.face_inside(omap.face_polygon(i))
            and not (buffer > 0 and domain.face_distance(omap.face_polygon(i)) < buffer)]
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


def _contains_point_loop(domain, pts, tol):
    """Winding-number containment one point and one polygon edge at a time
    (the oracle for DomainSpec.contains on polygons)."""
    from odmap.geometry import seg_points_distance

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


@given(seed=st.integers(0, 10_000), corners=st.integers(3, 12), tol=st.sampled_from([1e-12, 1e-3]))
@example(seed=0, corners=0, tol=1e-12)  # corners=0: the notched hexagon
@settings(max_examples=40, deadline=None)
def test_polygon_contains_matches_point_loop(seed, corners, tol):
    rng = np.random.default_rng(seed)
    if corners:  # a random star-shaped polygon
        angle = np.sort(rng.uniform(0, 2 * np.pi, corners))
        radius = rng.uniform(0.2, 1.0, corners)
        domain = DomainSpec("polygon", polygon=np.column_stack([radius * np.cos(angle),
                                                                radius * np.sin(angle)]))
    else:
        domain = NOTCHED
    poly = domain.polygon
    k = rng.integers(len(poly), size=60)
    on_edges = poly[k] + rng.random(60)[:, None] * (np.roll(poly, -1, axis=0)[k] - poly[k])
    pts = np.vstack([rng.uniform(poly.min(0) - 0.2, poly.max(0) + 0.2, (300, 2)), poly, on_edges,
                     on_edges + rng.normal(0.0, tol, (60, 2))])
    got = domain.contains(pts, tol)
    assert np.array_equal(got, _contains_point_loop(domain, pts, tol))
    assert got[300:300 + len(poly) + 60].all() and 0 < got[:300].sum() < 300
