import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmap
from odmap.errors import StructuralError
from odmap.generators import (
    bare_triangle_triangulation,
    cube_map,
    k4_map,
    octahedron_map,
    prism_map,
    single_interior_triangulation,
)
from odmap.geometry import cross2, dist, incircle
from odmap.packing import (
    CirclePacking,
    PlanarMap3C,
    Triangulation,
    _packing_residuals,
    packing_key_fact_residuals,
)


# ---------------------------------------------------------------------------
# incircle


def test_incircle_right_triangle():
    c, r = incircle((0, 0), (1, 0), (0, 1))
    assert r == pytest.approx((2 - np.sqrt(2)) / 2, abs=1e-12)
    assert c == pytest.approx([r, r], abs=1e-12)


def test_incircle_equilateral():
    s = 2.7
    c, r = incircle((0, 0), (s, 0), (s / 2, s * np.sqrt(3) / 2))
    assert r == pytest.approx(s / (2 * np.sqrt(3)), abs=1e-12)


def test_incircle_scaling():
    pts = np.array([[0.1, 0.2], [1.3, 0.4], [0.6, 1.9]])
    _, r1 = incircle(*pts)
    _, r2 = incircle(*(3.5 * pts))
    assert r2 == pytest.approx(3.5 * r1, rel=1e-12)


def test_incircle_collinear_raises():
    with pytest.raises(odmap.GeometryError):
        incircle((0, 0), (1, 1), (2, 2))


def _incircle_per_face(a, b, c):
    """The scalar incircle computation incircle broadcasts (the oracle)."""
    la, lb, lc = dist(b, c), dist(c, a), dist(a, b)
    s = la + lb + lc
    return (la * a + lb * b + lc * c) / s, abs(cross2(b - a, c - a)) / s


def test_incircle_broadcasts_bit_for_bit(packed500):
    tri, packing, _ = packed500
    corners = packing.centers[tri.faces]
    centers, radii = incircle(corners[:, 0], corners[:, 1], corners[:, 2])
    assert centers.shape == (len(tri.faces), 2) and radii.shape == (len(tri.faces),)
    for f, (a, b, c) in enumerate(corners):
        one_center, one_radius = incircle(a, b, c)
        oracle_center, oracle_radius = _incircle_per_face(a, b, c)
        assert np.array_equal(centers[f], one_center) and radii[f] == one_radius
        assert np.array_equal(centers[f], oracle_center) and radii[f] == oracle_radius
    # one degenerate triangle anywhere in the stack raises
    corners[7, 2] = corners[7, 0] + 0.5 * (corners[7, 1] - corners[7, 0])
    with pytest.raises(odmap.GeometryError):
        incircle(corners[:, 0], corners[:, 1], corners[:, 2])


def test_inradius_mesh_consistency():
    # inradius of a triangle with sides <= s is at most s / sqrt(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.random((3, 2))
        try:
            _, r = incircle(*pts)
        except odmap.GeometryError:
            continue
        longest = max(np.hypot(*(pts[i] - pts[(i + 1) % 3])) for i in range(3))
        assert r <= longest / np.sqrt(3) + 1e-12


# ---------------------------------------------------------------------------
# packing in the disk


def test_bare_triangle_closed_form():
    p = odmap.pack_in_disk(bare_triangle_triangulation())
    assert np.allclose(p.radii, 2 * np.sqrt(3) - 3, atol=1e-8)
    assert p.residuals["max_tangency"] <= 1e-10


def test_single_interior_symmetric():
    p = odmap.pack_in_disk(single_interior_triangulation())
    boundary_r = p.radii[p.boundary_mask]
    assert np.allclose(boundary_r, boundary_r[0], atol=1e-10)
    # closed-form interior radius: x = 3/4 => rho = (1 - sqrt(3)/2)/(1 + sqrt(3)/2)
    rho = (1 - np.sqrt(3) / 2) / (1 + np.sqrt(3) / 2)
    assert p.radii[~p.boundary_mask][0] == pytest.approx(rho, abs=1e-10)
    assert np.allclose(p.centers[~p.boundary_mask][0], [0, 0], atol=1e-12)


def test_random_500_packing(packed500):
    tri, p, _ = packed500
    assert p.residuals["max_tangency"] <= 1e-7 * p.max_radius
    assert p.residuals["max_boundary"] <= 1e-7
    assert p.residuals["worst_overlap"] >= -1e-9
    assert p.residuals["protrusion"] <= 1e-9


def test_overlap_checked_above_2000_circles():
    # the non-adjacent overlap check covers every size: moving one circle
    # onto a non-neighbour shows up as a negative worst_overlap
    tri = odmap.random_delaunay_triangulation(2001, seed=1)
    p = odmap.pack_in_disk(tri)
    assert p.residuals["worst_overlap"] == 0.0
    v = 0
    neighbours = {b for e in tri.edges for b in e if v in e}
    w = next(u for u in range(tri.n_vertices) if u != v and u not in neighbours)
    centers = p.centers.copy()
    centers[v] = centers[w]
    moved = _packing_residuals(tri, CirclePacking(centers, p.radii, p.boundary_mask))
    assert moved["worst_overlap"] == pytest.approx(-(p.radii[v] + p.radii[w]), rel=1e-12)


def test_tighter_tolerance_tightens_residuals():
    tri = odmap.random_delaunay_triangulation(80, seed=9)
    loose = odmap.pack_in_disk(tri, tol=1e-4)
    tight = odmap.pack_in_disk(tri, tol=1e-9)
    worst_loose = max(loose.residuals["max_tangency"], loose.residuals["max_boundary"])
    worst_tight = max(tight.residuals["max_tangency"], tight.residuals["max_boundary"])
    assert worst_tight <= max(worst_loose / 5, 1e-13)


def test_non_triangulation_rejected():
    with pytest.raises(StructuralError):
        Triangulation(4, np.array([[0, 1, 2], [0, 1, 3]])).validate()  # edge 0-1 reused same orientation


def test_key_fact_tangency_points(packed500):
    tri, p, _ = packed500
    res = packing_key_fact_residuals(tri, p)
    assert res.max() <= 1e-9


def test_packing_to_map_symmetric_fixture():
    tri = single_interior_triangulation()
    p = odmap.pack_in_disk(tri)
    m = odmap.orthodiagonal_from_packing(tri, p)
    # 3 inner quads (interior edges) + 3 boundary quads
    assert m.n_faces == 6
    report = odmap.validate(m, tol=1e-9)
    assert report.passed
    assert report.worst_orthogonality <= 1e-9


def test_packing_to_map_certificates(packed500):
    tri, p, m = packed500
    assert odmap.validate(m, tol=1e-7).passed
    assert m.mesh_size() <= 2 * p.max_radius + 1e-12
    delta = odmap.hausdorff_delta(m, odmap.unit_disk(), 2000)
    assert delta <= 2 * p.max_boundary_radius + 1e-9
    # face census: one quad per triangulation edge, and boundary edges get
    # the extension-point form (their second dual corner is a p_e vertex)
    assert m.n_faces == len(tri.edges)
    n, nf = tri.n_vertices, len(tri.faces)
    n_boundary_edges = len(tri.boundary_cycle)
    ext = sum(1 for f in m.faces if f.max() >= n + nf)
    assert ext == n_boundary_edges
    for f in m.faces:
        # two primal corners are triangulation vertices, first dual corner an
        # inscribed-circle center
        assert f[0] < n and f[2] < n
        assert n <= min(f[1], f[3]) < n + nf <= max(f[1], f[3]) or (
            n <= f[1] < n + nf and n <= f[3] < n + nf)


def test_packing_map_primal_positions_are_centers(packed500):
    tri, p, m = packed500
    assert np.allclose(m.positions[: tri.n_vertices], p.centers)
    assert np.all(m.primal_mask[: tri.n_vertices])
    assert not np.any(m.primal_mask[tri.n_vertices:])


# ---------------------------------------------------------------------------
# double packings


@pytest.mark.parametrize("builder", [k4_map, prism_map, cube_map, octahedron_map])
def test_double_packing_residuals(builder):
    h = builder()
    dp = odmap.double_pack(h, outer_face=0)
    assert dp.angle_residual <= 1e-8
    assert dp.residuals["max_vertex_tangency"] <= 1e-7
    assert dp.residuals["max_face_tangency"] <= 1e-7
    assert dp.residuals["max_point_mismatch"] <= 1e-7
    assert dp.residuals["max_orthogonality"] <= 1e-7


def test_k4_symmetry_classes():
    dp = odmap.double_pack(k4_map(), outer_face=0)
    vr = np.sort(dp.vertex_radii)
    # three outer vertices congruent, one interior vertex
    assert np.allclose(vr[1:], vr[1], atol=1e-6)
    assert vr[0] < vr[1]
    fr = np.sort(dp.face_radii)
    assert fr[-1] == pytest.approx(1.0)           # outer face = unit circle
    assert np.allclose(fr[:-1], fr[0], atol=1e-6)  # inner faces congruent
    # known closed form for this configuration
    assert vr[0] == pytest.approx(2 - np.sqrt(3), abs=1e-6)
    assert vr[-1] == pytest.approx(np.sqrt(3), abs=1e-6)
    assert fr[0] == pytest.approx(2 * np.sqrt(3) - 3, abs=1e-6)


def test_k4_map_has_six_quads():
    h = k4_map()
    dp = odmap.double_pack(h, outer_face=0)
    m = odmap.orthodiagonal_from_double_packing(h, dp)
    assert m.n_faces == 6  # one per edge of K4
    report = odmap.validate(m, tol=1e-8)
    assert report.passed


def test_prism_map_certificates():
    h = prism_map()
    dp = odmap.double_pack(h, outer_face=0)
    m = odmap.orthodiagonal_from_double_packing(h, dp)
    assert odmap.validate(m, tol=1e-8).passed
    non_outer = np.concatenate([dp.vertex_radii,
                                np.delete(dp.face_radii, dp.outer_face)])
    assert m.mesh_size() <= 2 * non_outer.max() + 1e-10
    outer_cycle = set(h.faces[0])
    delta_b = dp.vertex_radii[sorted(outer_cycle)].max()
    delta = odmap.hausdorff_delta(m, odmap.unit_disk(), 2000)
    assert delta <= delta_b + 1e-9


def test_prism_eta_monotone():
    h = prism_map()
    dp = odmap.double_pack(h, outer_face=0)
    disk = odmap.unit_disk()
    m1 = odmap.orthodiagonal_from_double_packing(h, dp, eta=0.05)
    m2 = odmap.orthodiagonal_from_double_packing(h, dp, eta=0.025)
    d1 = odmap.hausdorff_delta(m1, disk, 2000)
    d2 = odmap.hausdorff_delta(m2, disk, 2000)
    assert d2 <= d1 + 1e-9


def test_cube_duality_exchange():
    # the cube and its dual map (the octahedron) both pack cleanly: the
    # vertex/face roles swap under duality, so each map's angle system is the
    # other's with the two unknown families exchanged
    cube = cube_map()
    octa = octahedron_map()
    dpc = odmap.double_pack(cube, outer_face=0)
    dpo = odmap.double_pack(octa, outer_face=0)
    assert dpc.angle_residual <= 1e-8 and dpo.angle_residual <= 1e-8
    # symmetry classes of the cube packing: 4 + 4 vertices, 1 + 4 inner faces
    vr = np.sort(np.round(dpc.vertex_radii, 5))
    assert len(set(vr.tolist())) <= 2
    fr = np.sort(np.round(np.delete(dpc.face_radii, dpc.outer_face), 5))
    assert len(set(fr.tolist())) <= 2
    # the incidence structure swaps under duality
    assert len(octa.faces) == cube.n_vertices
    assert octa.n_vertices == len(cube.faces)
    assert sorted(len(f) for f in cube.faces) == sorted(
        sum(1 for f in octa.faces if v in f) for v in range(octa.n_vertices))


def test_octahedron_any_outer_face():
    h = octahedron_map()
    for outer in (0, 3, 7):
        dp = odmap.double_pack(h, outer_face=outer)
        assert dp.angle_residual <= 1e-8
        m = odmap.orthodiagonal_from_double_packing(h, dp)
        assert odmap.validate(m, tol=1e-7).passed


def test_not_3_connected_rejected():
    # a 4-cycle is 2-connected only
    square = PlanarMap3C(4, [[0, 3, 2, 1], [0, 1, 2, 3]])
    with pytest.raises(StructuralError):
        odmap.double_pack(square, outer_face=0)


def _first_separating_pair(h):
    """Brute-force oracle: the lexicographically first vertex pair whose
    removal disconnects the map, or None when the map is 3-connected."""
    adj = {v: set() for v in range(h.n_vertices)}
    for a, b in h.edges:
        adj[a].add(b)
        adj[b].add(a)
    for i in range(h.n_vertices):
        for j in range(i + 1, h.n_vertices):
            rest = [v for v in range(h.n_vertices) if v not in (i, j)]
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                for u in adj[stack.pop()] - seen - {i, j}:
                    seen.add(u)
                    stack.append(u)
            if len(seen) != len(rest):
                return i, j
    return None


def _coned(tri):
    apex = tri.n_vertices
    cyc = tri.boundary_cycle
    cone = [[cyc[k], cyc[(k + 1) % len(cyc)], apex] for k in range(len(cyc))]
    return PlanarMap3C(apex + 1, [list(map(int, f)) for f in tri.faces] + cone)


def _closed(tri):
    """The triangulation with its boundary cycle as the outer face."""
    return PlanarMap3C(tri.n_vertices,
                       [list(map(int, f)) for f in tri.faces] + [tri.boundary_cycle])


def _assert_3_connected_matches_oracle(h):
    pair = _first_separating_pair(h)
    if pair is None:
        h.check_3_connected()
    else:
        with pytest.raises(StructuralError,
                           match=re.escape(f"removing vertices {{{pair[0]},{pair[1]}}} ")):
            h.check_3_connected()


@given(seed=st.integers(0, 10_000), n=st.integers(4, 40), close=st.booleans())
@example(seed=0, n=25, close=True)  # separated by the pair {10, 14}
@settings(max_examples=40, deadline=None)
def test_check_3_connected_matches_pairwise_oracle(seed, n, close):
    tri = odmap.random_delaunay_triangulation(n, seed=seed)
    _assert_3_connected_matches_oracle(_closed(tri) if close else _coned(tri))


@pytest.mark.parametrize("h", [
    PlanarMap3C(4, [[0, 3, 2, 1], [0, 1, 2, 3]]),  # 4-cycle
    k4_map(), prism_map(), cube_map(), octahedron_map(),
], ids=["4-cycle", "k4", "prism", "cube", "octahedron"])
def test_check_3_connected_fixtures_match_pairwise_oracle(h):
    _assert_3_connected_matches_oracle(h)


def test_svg_emission(tmp_path, packed500):
    tri, p, m = packed500
    path = tmp_path / "packing.svg"
    odmap.packing_svg(path, p.centers, p.radii, m)
    text = path.read_text()
    assert text.startswith("<svg") and "circle" in text and "line" in text
