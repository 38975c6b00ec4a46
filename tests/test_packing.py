import gc
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import odmap
from odmap import packing
from odmap.errors import PackingError, StructuralError
from odmap.generators import (
    SHAPES,
    cube_map,
    k4_map,
    octahedron_map,
    prism_map,
    random_delaunay_triangulation,
    triangular_disk_triangulation,
)
from odmap.geometry import cross2, incircle
from odmap.packing import (
    CirclePacking,
    DoubleCirclePacking,
    PlanarMap3C,
    Triangulation,
    _angle_defects,
    _angle_incidences,
    _angle_jacobian,
    _double_packing_residuals,
    _extensions_cross,
    _packing_residuals,
    packing_key_fact_residuals,
)

from conftest import closed, coned, flip_chain, segments_intersect_scalar
from packing_oracle import (
    bare_triangle_triangulation,
    layout_loop,
    single_interior_triangulation,
    solve_x,
    t_of_x,
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
    la, lb, lc = (float(np.hypot(*(q - p))) for p, q in ((b, c), (c, a), (a, b)))
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
    rho = 2 * np.sqrt(3) - 3
    assert np.allclose(p.radii, rho, atol=1e-8)
    assert p.residuals["max_tangency"] <= 1e-10
    # three equal horocycles symmetric about the origin, the last one on top
    angles = np.pi * np.array([-5 / 6, -1 / 6, 1 / 2])
    expected = (1 - rho) * np.column_stack([np.cos(angles), np.sin(angles)])
    assert np.abs(p.centers - expected).max() <= 1e-15


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


def _worst_overlap_all_pairs(tri, p):
    """The least separation over all pairs of circles that share no edge, or 0.0."""
    c, r = p.centers, p.radii
    i, j = np.triu_indices(len(r), 1)
    edges = set(map(tuple, tri.edges.tolist()))
    keep = np.array([e not in edges for e in zip(i.tolist(), j.tolist())], bool)
    return min(float((np.hypot(*(c[i] - c[j]).T) - (r[i] + r[j]))[keep].min(initial=0.0)), 0.0)


@pytest.mark.parametrize("kind, seed", [("polygon", 3), ("polygon", 8), ("delaunay", 1), ("delaunay", 2)])
def test_worst_overlap_matches_all_pairs(kind, seed):
    tri = polygon_triangulation(12, seed) if kind == "polygon" else random_delaunay_triangulation(150, seed)
    p = odmap.pack_in_disk(tri)
    assert p.residuals["worst_overlap"] == _worst_overlap_all_pairs(tri, p) == 0.0
    # planted overlaps: the smallest non-neighbour of the largest circle moved
    # half its radius onto it (only the larger one's ball query finds that
    # pair), and on a Delaunay packing the largest interior circle grown
    big = int(np.argmax(p.radii))
    strangers = np.flatnonzero(tri.graph[big].toarray().ravel() == 0)
    strangers = strangers[strangers != big]
    small = int(strangers[np.argmin(p.radii[strangers])])
    assert 3 * p.radii[small] < p.radii[big]
    centers = p.centers.copy()
    d = p.centers[small] - p.centers[big]
    centers[small] = p.centers[big] + d / np.hypot(*d) * (p.radii[big] + 0.5 * p.radii[small])
    planted = [CirclePacking(centers, p.radii, p.boundary_mask)]
    if kind == "delaunay":
        radii = p.radii.copy()
        radii[np.argmax(np.where(tri.boundary_mask, 0.0, radii))] *= 1.8
        planted.append(CirclePacking(p.centers, radii, p.boundary_mask))
    for q in planted:
        worst = _packing_residuals(tri, q)["worst_overlap"]
        assert worst < 0.0 and worst == _worst_overlap_all_pairs(tri, q)


def test_validated_triangulation_and_solved_map_are_freed_without_the_collector():
    # a cached reference to itself would keep each one alive until a
    # collection, and a benchmark's peak memory with it
    gc.collect()
    gc.disable()
    try:
        tri = random_delaunay_triangulation(200, seed=1)
        assert tri.validate() is tri and tri.validate() is tri
        p = odmap.pack_in_disk(tri)
        m = odmap.orthodiagonal_from_packing(tri, p)
        assert odmap.validate(m).passed
        h = odmap.solve_dirichlet(m, odmap.get_test_function("exp_x_cos_y"))
        refs = weakref.ref(tri), weakref.ref(m)
        del tri, m
        assert [r() for r in refs] == [None, None]
        assert h.values.size  # the solution holds the network, not the map
    finally:
        gc.enable()


def test_tighter_tolerance_tightens_residuals():
    tri = odmap.random_delaunay_triangulation(80, seed=9)
    loose = odmap.pack_in_disk(tri, tol=1e-4)
    tight = odmap.pack_in_disk(tri, tol=1e-9)
    worst_loose = max(loose.residuals["max_tangency"], loose.residuals["max_boundary"])
    worst_tight = max(tight.residuals["max_tangency"], tight.residuals["max_boundary"])
    assert worst_tight <= max(worst_loose / 5, 1e-13)


@pytest.mark.parametrize("points", [
    np.zeros((0, 2)),
    [[0.0, 0.0], [1.0, 1.0]],
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
    [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [3.0, 0.0]],
])
def test_triangulation_from_points_rejects_sets_spanning_no_triangle(points):
    with pytest.raises(odmap.GeometryError):
        packing.triangulation_from_points(np.array(points, float))


def test_non_triangulation_rejected():
    with pytest.raises(StructuralError):
        Triangulation(4, np.array([[0, 1, 2], [0, 1, 3]])).validate()  # edge 0-1 reused same orientation


def test_key_fact_tangency_points(packed500):
    tri, p, _ = packed500
    res = packing_key_fact_residuals(tri, p)
    assert res.max() <= 1e-9


def _key_fact_loop(tri, p):
    """One edge and one face at a time (the oracle for
    packing_key_fact_residuals)."""
    c, r = p.centers, p.radii
    inc_centers, _ = incircle(*c[tri.faces].transpose(1, 0, 2))
    s = tri._sides  # the faces on an edge: those of its first side and that side's twin
    out = []
    for (a, b), k in zip(tri.edges, s.first):
        d = c[b] - c[a]
        L = np.hypot(*d)
        q = c[a] + r[a] * d / L
        for f in [s.face[k]] + ([s.face[s.twin[k]]] if s.twin[k] >= 0 else []):
            t = np.clip(np.dot(inc_centers[f] - c[a], d) / L**2, 0.0, 1.0)
            out.append(np.hypot(*(q - (c[a] + t * d))))
    return np.array(out)


def test_key_fact_residuals_match_edge_loop(packed500):
    bench = random_delaunay_triangulation(1000, seed=1)  # the pack_solve.N1000 input
    for tri, p in ((packed500[0], packed500[1]), (bench, odmap.pack_in_disk(bench))):
        got, want = packing_key_fact_residuals(tri, p), _key_fact_loop(tri, p)
        assert got.shape == want.shape == (2 * len(tri.edges) - len(tri.boundary_cycle),)
        assert np.abs(got - want).max() <= 1e-15


def _extensions_cross_loop(ca, cb, ext):
    k = len(ext)
    return any(segments_intersect_scalar(*seg, include_endpoints=False)
               for i, j in zip(range(k), np.roll(np.arange(k), -1))
               for seg in ((ca[i], ext[i], ca[j], ext[j]),
                           (ca[i], ext[i], ext[j], cb[j]),
                           (ext[i], cb[i], ext[j], cb[j])))


@given(seed=st.integers(0, 10_000), k=st.integers(3, 40), grid=st.sampled_from([3, 8, 0]))
@settings(max_examples=60, deadline=None)
def test_extensions_cross_matches_pair_loop(seed, k, grid):
    # consecutive boundary edges share an end: cb[i] is ca[i + 1]; small
    # integer grids make touching and collinear sides common
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, grid, (2, k, 2)) / grid if grid else rng.random((2, k, 2))
    ca, ext = pts
    cb = np.roll(ca, -1, axis=0)
    assert _extensions_cross(ca, cb, ext) == _extensions_cross_loop(ca, cb, ext)


@pytest.mark.parametrize("drift, tol", [(1e-6, 1e-8), (1e-8, 1e-7)])
def test_drifting_layout_raises(monkeypatch, drift, tol):
    # interior t = tanh(h/2) off by `drift` leave the flowers open, and the
    # laid-out circles miss their tangencies; on this input by about 3.1
    # drift absolute and 66 drift relative to the smaller circle, so at
    # drift 1e-8 only the relative check exceeds tol = 1e-7
    tri = random_delaunay_triangulation(200, seed=3)
    solve = packing._solve_hyperbolic_radii

    def drifting(tri, angle_tol):
        t, stats, elimination = solve(tri, angle_tol)
        noise = np.random.default_rng(0).standard_normal(len(t))
        return np.where(t < 1.0, t * (1.0 + drift * noise), t), stats, elimination

    monkeypatch.setattr(packing, "_solve_hyperbolic_radii", drifting)
    with pytest.raises(PackingError, match="relative tangency") as err:
        odmap.pack_in_disk(tri, tol=tol)
    assert "float precision" not in str(err.value)


def _interior_angle_sums(tri, p):
    """Euclidean angle sum at each circle centre over its centre triangles."""
    corners = p.centers[tri.faces]
    sums = np.zeros(tri.n_vertices)
    for k in range(3):
        u = corners[:, (k + 1) % 3] - corners[:, k]
        w = corners[:, (k + 2) % 3] - corners[:, k]
        sums += np.bincount(tri.faces[:, k], np.arctan2(cross2(u, w), np.sum(u * w, axis=1)),
                            tri.n_vertices)
    return sums[~p.boundary_mask]


def _assert_packing_sound(tri, p):
    m = odmap.orthodiagonal_from_packing(tri, p)
    assert odmap.validate(m, tol=1e-9).passed
    assert p.residuals["max_relative_tangency"] <= 1e-8
    assert np.abs(_interior_angle_sums(tri, p) - 2 * np.pi).max(initial=0.0) <= 1e-9


@given(kind=st.sampled_from(["delaunay", "lattice"]), seed=st.integers(0, 10_000),
       n=st.integers(10, 3000), rows=st.integers(3, 25))
@example(kind="delaunay", seed=2, n=3000, rows=3)
@example(kind="lattice", seed=0, n=10, rows=25)
@settings(max_examples=8, deadline=None)
def test_pack_in_disk_packs_delaunay_and_lattices_soundly(kind, seed, n, rows):
    tri = (random_delaunay_triangulation(n, seed=seed) if kind == "delaunay"
           else triangular_disk_triangulation(rows))
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


@given(seed=st.integers(0, 10_000), n=st.integers(10, 3000), share=st.floats(0.0, 5.0))
@example(seed=3, n=3000, share=5.0)  # circles down to radius 9.6e-6
@settings(max_examples=6, deadline=None)
def test_flip_chain_triangulations_pack_soundly(seed, n, share):
    # combinatorially random triangulations: after up to 5 n flip proposals
    # the degrees reach 20-30 and the smallest circles are far smaller than
    # on a Delaunay input of the same size
    tri = flip_chain(random_delaunay_triangulation(n, seed=seed), int(share * n), seed)
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


def test_pack_solve_n3000_seed1_validates():
    # the pack_solve.N3000 input at seed 1, whose induced map once failed
    # validate at 1e-9 (orthogonality 3.8e-9) while its packing passed
    tri = random_delaunay_triangulation(3000, seed=1)
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


def test_100k_circles_pack_and_validate():
    # each circle is placed from one circle of the layer before, at the kite
    # angles summed about it, so no placement chains around a ring; a layout
    # that chains them drifts here to relative tangency 1.5e-8, past tol
    tri = random_delaunay_triangulation(100_000, seed=2)
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


def hub_triangulation(degree, rings):
    """Vertex 0 inside `rings` rings of `degree` vertices each, every ring
    joined to the next by a band of triangles; the last ring is the boundary."""
    ring = np.arange(rings)[:, None] * degree + 1 + np.arange(degree)
    nxt = np.roll(ring, -1, axis=1)
    faces = [np.column_stack([np.zeros(degree, int), ring[0], nxt[0]])]
    for k in range(rings - 1):
        faces += [np.column_stack([ring[k], ring[k + 1], nxt[k + 1]]),
                  np.column_stack([ring[k], nxt[k + 1], nxt[k]])]
    return Triangulation(1 + rings * degree, np.concatenate(faces))


@given(degree=st.integers(3, 300), rings=st.integers(2, 10))
@example(degree=200, rings=3)
@example(degree=80, rings=3)
@example(degree=3, rings=6)
@example(degree=3, rings=8)
@example(degree=3, rings=10)
@settings(max_examples=10, deadline=None)
def test_hub_layout_sound(degree, rings):
    # unbounded degrees are in scope; a layout that pivots on the circle
    # placed last around the ring compounds its error by about 1.5 per
    # circle here, to relative tangency 1e-7 at degree 80 and 13 at 200.
    # Nested rings of three shrink about tenfold per ring: 1 - exp(-2h)
    # cancels for such circles, where tanh(h/2) does not
    tri = hub_triangulation(degree, rings)
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


def test_rim_horocycles_are_tangent_to_their_pivots_to_rounding():
    # a rim horocycle is solved from d = zeta - c_p, its ideal point less its
    # pivot's centre; formed from terms of size 1, its radius cancels to a
    # median relative tangency of 5e-13 on the boundary-interior edges here
    tri = hub_triangulation(297, 6)
    p = odmap.pack_in_disk(tri)
    a, b = tri.edges.T
    rim = tri.boundary_mask[a] != tri.boundary_mask[b]
    gap = np.abs(np.hypot(*(p.centers[a] - p.centers[b]).T) - (p.radii[a] + p.radii[b]))
    assert np.median((gap / np.minimum(p.radii[a], p.radii[b]))[rim]) <= 2e-14


def _assert_tight(tri, p):
    _assert_packing_sound(tri, p)
    assert p.residuals["max_relative_tangency"] <= 1e-12
    assert p.residuals["max_boundary"] <= 1e-12


@pytest.mark.parametrize("k", [4, 6, 10, 30])
def test_fan_places_horocycles_from_two(k):
    # a fan of a convex k-gon has no interior vertex, so every circle after
    # the first face is a horocycle placed from two horocycles
    tri = Triangulation(k, [[0, i, i + 1] for i in range(1, k - 1)])
    assert tri.boundary_mask.all()
    _assert_tight(tri, odmap.pack_in_disk(tri))


def test_glued_wheels_place_interior_from_two():
    # two 6-wheels sharing the boundary chord (1, 2): the second hub is laid
    # out from the two chord circles, both horocycles, not from a placed
    # neighbour's fan
    def wheel(hub, rim):
        return [[hub, rim[i], rim[(i + 1) % len(rim)]] for i in range(len(rim))]

    tri = Triangulation(12, wheel(0, [1, 2, 3, 4, 5, 6]) + wheel(7, [2, 1, 8, 9, 10, 11]))
    assert tri.boundary_mask[[1, 2]].all() and not tri.boundary_mask[[0, 7]].any()
    _assert_tight(tri, odmap.pack_in_disk(tri))


def polygon_triangulation(k, seed):
    """A random triangulation of the convex k-gon 0, ..., k - 1 (CCW), split
    recursively along random diagonals."""
    rng = np.random.default_rng(seed)
    faces, pieces = [], [list(range(k))]
    while pieces:
        poly = pieces.pop()
        if len(poly) == 3:
            faces.append(poly)
            continue
        i = int(rng.integers(len(poly)))
        poly = poly[i:] + poly[:i]
        d = int(rng.integers(2, len(poly) - 1))  # the diagonal poly[0] -- poly[d]
        pieces += [poly[:d + 1], poly[d:] + poly[:1]]
    return Triangulation(k, faces)


@given(k=st.integers(3, 12), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_polygon_triangulations_pack(k, seed):
    # no interior vertex: every circle is a horocycle, and every one after
    # the first face is placed from two horocycles
    tri = polygon_triangulation(k, seed)
    _assert_packing_sound(tri, odmap.pack_in_disk(tri))


def _oracle_input(kind, seed, n, degree, rings, k, rows, strip=3):
    if kind == "zigzag":
        return zigzag_strip(strip)
    if kind == "delaunay":
        return random_delaunay_triangulation(n, seed=seed)
    if kind == "hub":
        return hub_triangulation(degree, rings)
    if kind == "polygon":
        return polygon_triangulation(k, seed)
    return triangular_disk_triangulation(rows)


@given(kind=st.sampled_from(["delaunay", "hub", "polygon", "lattice", "zigzag"]),
       seed=st.integers(0, 10_000), n=st.integers(10, 3000), degree=st.integers(3, 300),
       rings=st.integers(2, 10), k=st.integers(3, 12), rows=st.integers(2, 25),
       strip=st.integers(3, 22))
@example(kind="delaunay", seed=3, n=3000, degree=3, rings=2, k=3, rows=2, strip=3)
@example(kind="hub", seed=0, n=10, degree=3, rings=10, k=3, rows=2, strip=3)
@example(kind="polygon", seed=1, n=10, degree=3, rings=2, k=12, rows=2, strip=3)
@example(kind="polygon", seed=2557, n=10, degree=3, rings=2, k=10, rows=2, strip=3)
@example(kind="zigzag", seed=0, n=10, degree=3, rings=2, k=3, rows=2, strip=22)
@settings(max_examples=16, deadline=None)
def test_layout_matches_per_circle_loop(kind, seed, n, degree, rings, k, rows, strip):
    # each pass places its circles from the same pivots, at the same summed
    # kite angles and by the same closed forms, as a loop over the circles;
    # numpy rounds array and scalar complex arithmetic differently, and the
    # loop sums the angles one at a time, so they agree to rounding, which
    # near the rim grows like 1e-16 / r^2 relative for a circle of radius r
    # (1.3e-10 on horocycles of radius 2e-3 in a 12-gon).  A zigzag strip
    # places every circle after its first face by the fallback rule, which
    # the loop takes from the first breadth-first face instead
    tri = _oracle_input(kind, seed, n, degree, rings, k, rows, strip)
    p = odmap.pack_in_disk(tri)
    centers, radii = layout_loop(tri, packing._solve_hyperbolic_radii(tri, 1e-12)[0])
    assert np.abs(p.centers[:, 0] + 1j * p.centers[:, 1] - centers).max() <= 1e-13
    assert (np.abs(p.radii / radii - 1.0) <= 1e-12 + 1e-16 / radii**2).all()


@given(kind=st.sampled_from(["delaunay", "hub", "polygon", "lattice"]),
       seed=st.integers(0, 10_000), n=st.integers(10, 3000), degree=st.integers(3, 300),
       rings=st.integers(2, 4), k=st.integers(3, 12), rows=st.integers(2, 25))
@example(kind="delaunay", seed=1, n=3000, degree=3, rings=2, k=3, rows=2)
@example(kind="hub", seed=0, n=10, degree=3, rings=4, k=3, rows=2)
@settings(max_examples=16, deadline=None)
def test_radius_solve_matches_x_solve(kind, seed, n, degree, rings, k, rows):
    # the solve in x = exp(-2h) holds a small circle only as well as 1 - x
    # does: it stalls on nested rings of three from 6 rings on, and at 5
    # rings (or degree 10 with 10 rings) it is off by 1.3e-11 (1.8e-12) where
    # a long-double Newton refinement agrees with the solve in t to 1.5e-14;
    # so the hubs here stop at 4 rings
    tri = _oracle_input(kind, seed, n, degree, rings, k, rows)
    t = packing._solve_hyperbolic_radii(tri, 1e-12)[0]
    x = solve_x(tri, 1e-12)
    assert np.abs(t / np.where(tri.boundary_mask, 1.0, t_of_x(x)) - 1.0).max() <= 1e-12


def test_radius_solve_reuses_its_factor():
    # factoring at every step took 6 factorizations in 6 steps here; a
    # kept factor preconditions CG on every step after the first full one
    p = odmap.pack_in_disk(random_delaunay_triangulation(3000, seed=1))
    stats = p.residuals["radius_solve"]
    assert stats["factorizations"] < stats["steps"]
    assert stats["factorizations"] <= 3 and stats["cg_iterations"] > 0
    assert stats["angle_residual"] < 1e-12


def _pack_both_ways(monkeypatch, tri):
    """pack_in_disk as it runs, and with _CG_ITERATIONS = 0, where every
    Newton step factors the Jacobian afresh."""
    kept = odmap.pack_in_disk(tri)
    with monkeypatch.context() as patch:
        patch.setattr(packing, "_CG_ITERATIONS", 0)
        fresh = odmap.pack_in_disk(tri)
    stats = fresh.residuals["radius_solve"]
    assert stats["factorizations"] == stats["steps"] and stats["cg_iterations"] == 0
    return kept, fresh


def _assert_same_radii(kept, fresh):
    assert np.abs(kept.radii / fresh.radii - 1.0).max() <= 1e-12


@pytest.mark.parametrize("kind, size, seed", [
    *(("delaunay", n, seed) for seed in (1, 2, 3) for n in (1000, 3000)),  # the pack_solve inputs
    ("hub", 6, 0),  # degree 3, 6 rings
])
def test_cg_steps_match_factoring_every_step(monkeypatch, kind, size, seed):
    tri = (random_delaunay_triangulation(size, seed=seed) if kind == "delaunay"
           else hub_triangulation(3, size))
    _assert_same_radii(*_pack_both_ways(monkeypatch, tri))


@given(k=st.integers(3, 12), seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_polygon_packings_match_factoring_every_step(k, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same_radii(*_pack_both_ways(monkeypatch, polygon_triangulation(k, seed)))


def test_cg_miss_factors_afresh(monkeypatch):
    # a target below rounding misses on every kept-factor step, after its
    # one CG iteration: each of them factors K afresh
    tri = random_delaunay_triangulation(1000, seed=1)
    monkeypatch.setattr(packing, "_CG_ITERATIONS", 1)
    monkeypatch.setattr(packing, "_CG_RTOL", 1e-20)
    missed, fresh = _pack_both_ways(monkeypatch, tri)
    stats = missed.residuals["radius_solve"]
    assert stats["factorizations"] == stats["steps"] and stats["cg_iterations"] > 0
    _assert_packing_sound(tri, missed)
    _assert_same_radii(missed, fresh)


def test_fixed_pattern_jacobian_matches_plain_assembly(monkeypatch):
    # every fill of K's data, the refills in place included
    built = []
    fill = packing._FixedPattern.fill

    def spy(pattern, data):
        got = fill(pattern, data)
        plain = sp.csc_matrix((data, (pattern.rows, pattern.cols)), shape=(pattern.size,) * 2)
        plain.sum_duplicates()
        built.append((sp.csc_matrix((got, pattern.indices, pattern.indptr), shape=plain.shape), plain))
        return got

    monkeypatch.setattr(packing._FixedPattern, "fill", spy)
    packing._solve_hyperbolic_radii(random_delaunay_triangulation(1000, seed=1), 1e-12)
    assert len(built) >= 3  # the first in natural order, the rest in the reused ordering
    for got, plain in built:
        assert np.array_equal(got.indptr, plain.indptr)
        assert np.array_equal(got.indices, plain.indices)
        assert (np.abs(got.data - plain.data) <= np.spacing(np.abs(plain.data))).all()
        # Colin de Verdiere's variable makes the Jacobian symmetric
        assert abs(got - got.T).max() <= 1e-15 * abs(got).max()


def _unique_renumbered(pattern, rank):
    """The renumbered pattern built afresh by np.unique, as the oracle (in
    int64: SuperLU's int32 perm_c would wrap the keys cols * size + rows)."""
    rank = rank.astype(np.int64)
    return packing._FixedPattern(rank[pattern.rows], rank[pattern.cols], pattern.size)


def test_renumbered_pattern_matches_a_fresh_build(monkeypatch):
    seen = []
    renumbered = packing._FixedPattern.renumbered

    def spy(pattern, rank):
        seen.append((renumbered(pattern, rank), _unique_renumbered(pattern, rank)))
        return seen[-1][0]

    monkeypatch.setattr(packing._FixedPattern, "renumbered", spy)
    packing._solve_hyperbolic_radii(random_delaunay_triangulation(3000, seed=1), 1e-12)
    assert len(seen) == 1
    for name in ("rows", "cols", "indices", "indptr", "slot"):
        got, want = (getattr(p, name) for p in seen[0])
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_renumbered_pattern_past_the_int32_keys():
    # above 46,341 unknowns the keys cols * size + rows pass 2^31, so an
    # int32 rank (SuperLU's perm_c is one) must not wrap them
    size = 50_000
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, size, (2, 3 * size))
    rows, cols = np.concatenate([np.arange(size), rows]), np.concatenate([np.arange(size), cols])
    pattern = packing._FixedPattern(rows, cols, size)
    rank = rng.permutation(size).astype(np.int32)
    got, want = pattern.renumbered(rank), _unique_renumbered(pattern, rank)
    for name in ("rows", "cols", "indices", "indptr", "slot"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    data = rng.standard_normal(rows.size)
    assert (got.matrix(data) != want.matrix(data)).nnz == 0


@pytest.mark.parametrize("size, seed", [(n, seed) for seed in (1, 2, 3) for n in (1000, 3000)])
def test_renumbered_pattern_keeps_the_pack_solve_radii(monkeypatch, size, seed):
    tri = random_delaunay_triangulation(size, seed=seed)
    got = odmap.pack_in_disk(tri)
    monkeypatch.setattr(packing._FixedPattern, "renumbered", _unique_renumbered)
    want = odmap.pack_in_disk(tri)
    assert np.array_equal(got.radii, want.radii) and np.array_equal(got.centers, want.centers)


def zigzag_strip(n):
    """Triangulated convex n-gon whose faces zigzag across it from the edge
    (0, n - 1): a strip, each face sharing an edge with the next."""
    faces, lo, hi = [], 0, n - 1
    while hi - lo >= 2:
        if len(faces) % 2 == 0:
            faces.append([lo, lo + 1, hi])
            lo += 1
        else:
            faces.append([lo, hi - 1, hi])
            hi -= 1
    return Triangulation(n, faces)


def test_zigzag_strip_too_fine_for_floats_raises():
    # the horocycles shrink like phi^(-2 depth); at 49 vertices two ideal
    # points fall on one float and the layout comes out NaN, which must be
    # a PackingError rather than a failure inside the residual checks
    with pytest.raises(PackingError, match="circle 24 is not finite"):
        odmap.pack_in_disk(zigzag_strip(49))


def test_zigzag_strip_past_float_precision_says_so():
    # at 30 vertices the smallest horocycles have radius 4.3e-12: their
    # tangencies hold about 1e-16 / r = 2.3e-5 relative, far above tol.  The
    # worst edge is (13, 14), and its smaller circle 14 (radius 1.1e-11) is
    # past its own floor 1e-16 / r^2 too; the message names that circle
    tri = zigzag_strip(30)
    with pytest.raises(PackingError, match=r"relative tangency .*smaller circle 14 of radius "
                                           r"1\.12e-11 lies 26 placements from the seed and is "
                                           r"past the disk model's float precision"):
        odmap.pack_in_disk(tri)
    # the same layout, accepted at a loose tol: the worst edge, recomputed
    p = odmap.pack_in_disk(tri, tol=1.0)
    a, b = tri.edges.T
    gap = np.abs(np.hypot(*(p.centers[a] - p.centers[b]).T) - (p.radii[a] + p.radii[b]))
    worst = np.argmax(gap / np.minimum(p.radii[a], p.radii[b]))
    assert tri.edges[worst].tolist() == [13, 14] and p.radii[14] < p.radii[13]
    assert f"{p.radii[14]:.2e}" == "1.12e-11" and 1e-16 > 1e-8 * p.radii[14] ** 2


def test_zigzag_strip_horocycles_hold_to_one_over_r():
    # a horocycle placed from two is laid out to about 1e-16 / r relative,
    # not 1e-16 / r^2: at 20 vertices, radius 6.5e-8, it packs at tol 1e-8
    p = odmap.pack_in_disk(zigzag_strip(20))
    assert p.radii.min() == pytest.approx(6.485e-8, rel=1e-3)
    assert p.residuals["max_relative_tangency"] <= 2e-16 / p.radii.min()


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


# -- the double packing's array code against the loops it replaced ---------


def _face_left(h):
    return {(a, b): i for i, cyc in enumerate(h.faces)
            for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]])}


def _angle_system_loops(h, outer_face, u):
    """Angle-sum defects and Jacobian, one incidence at a time (the oracle)."""
    n = h.n_vertices
    inner = [f for f in range(len(h.faces)) if f != outer_face]
    slot_of_face = {f: n + k for k, f in enumerate(inner)}
    n_unk = n + len(inner)
    incid_v = [[] for _ in range(n)]
    for f, cyc in enumerate(h.faces):
        for v in cyc:
            incid_v[v].append(-1 if f == outer_face else slot_of_face[f])
    incid_f = [list(h.faces[f]) for f in inner]
    target = 2.0 * np.pi
    r = np.exp(u)
    F = np.zeros(n_unk)
    J = np.zeros((n_unk, n_unk))
    for v in range(n):
        acc = 0.0
        for s in incid_v[v]:
            if s == -1:
                acc += target - 2.0 * np.arctan(1.0 / r[v])
                t = 1.0 / r[v]
                J[v, v] += 2.0 * t / (1.0 + t * t)
            else:
                acc += 2.0 * np.arctan(r[s] / r[v])
                t = r[s] / r[v]
                d = 2.0 * t / (1.0 + t * t)
                J[v, v] -= d
                J[v, s] += d
        F[v] = acc - target
    for k, verts in enumerate(incid_f):
        fslot = n + k
        F[fslot] = sum(2.0 * np.arctan(r[v] / r[fslot]) for v in verts) - target
        for v in verts:
            t = r[v] / r[fslot]
            d = 2.0 * t / (1.0 + t * t)
            J[fslot, fslot] -= d
            J[fslot, v] += d
    return F, J


def _double_packing_residuals_loop(dp):
    h = dp.planar_map
    left = _face_left(h)
    vc, vr, fcc, fr = dp.vertex_centers, dp.vertex_radii, dp.face_centers, dp.face_radii
    out = {"max_vertex_tangency": 0.0, "max_face_tangency": 0.0,
           "max_point_mismatch": 0.0, "max_orthogonality": 0.0}
    for (a, b) in h.edges:
        fl, fr_face = left[(a, b)], left[(b, a)]
        gap = np.hypot(*(vc[a] - vc[b])) - (vr[a] + vr[b])
        out["max_vertex_tangency"] = max(out["max_vertex_tangency"], abs(gap))
        d = vc[b] - vc[a]
        q = vc[a] + vr[a] * d / np.hypot(*d)
        if fl != dp.outer_face and fr_face != dp.outer_face:
            gap_f = np.hypot(*(fcc[fl] - fcc[fr_face])) - (fr[fl] + fr[fr_face])
            out["max_face_tangency"] = max(out["max_face_tangency"], abs(gap_f))
            d = fcc[fr_face] - fcc[fl]
            q2 = fcc[fl] + fr[fl] * d / np.hypot(*d)
            inner = fl
        else:
            inner = fl if fl != dp.outer_face else fr_face
            nrm = np.hypot(*fcc[inner])
            out["max_face_tangency"] = max(out["max_face_tangency"], abs(nrm + fr[inner] - 1.0))
            q2 = fcc[inner] * (1.0 + fr[inner] / nrm)
        out["max_point_mismatch"] = max(out["max_point_mismatch"], float(np.hypot(*(q - q2))))
        ortho = abs(np.dot(vc[a] - q, fcc[inner] - q)) / (vr[a] * fr[inner])
        out["max_orthogonality"] = max(out["max_orthogonality"], float(ortho))
    return out


def _orthodiagonal_from_double_packing_loop(h, dp, eta=None):
    left = _face_left(h)
    n = h.n_vertices
    vc, fcc, outer = dp.vertex_centers, dp.face_centers, dp.outer_face
    inner_faces = [f for f in range(len(h.faces)) if f != outer]
    slot = {f: n + k for k, f in enumerate(inner_faces)}
    delta_b = float(dp.vertex_radii[list(set(h.faces[outer]))].max())
    positions = [vc[i] for i in range(n)] + [fcc[f] for f in inner_faces]
    faces = []
    for (a, b) in h.edges:
        fl, frc = left[(a, b)], left[(b, a)]
        if fl != outer and frc != outer:
            quad = [a, slot[fl], b, slot[frc]]
        else:
            inner = fl if fl != outer else frc
            d = vc[b] - vc[a]
            q = vc[a] + dp.vertex_radii[a] * d / np.hypot(*d)
            u = q - fcc[inner]
            u = u / np.hypot(*u)
            cap = 0.5 * min(dp.vertex_radii[a], dp.vertex_radii[b], delta_b)
            e = cap if eta is None else min(eta, cap)
            positions.append(q + e * u)
            quad = [a, slot[inner], b, len(positions) - 1]
        if quad[1] == slot.get(fl):  # the face left of a -> b first: the quad runs clockwise
            quad = [quad[0], quad[3], quad[2], quad[1]]
        faces.append(quad)
    return np.array(positions), np.array(faces, int)


def _some_map(kind, seed, n):
    if kind in SHAPES:
        return SHAPES[kind]()
    tri = odmap.random_delaunay_triangulation(n, seed=seed)
    return coned(tri) if kind == "coned" else closed(tri)


@given(kind=st.sampled_from(["coned", "closed", *SHAPES]), seed=st.integers(0, 10_000),
       n=st.integers(4, 60))
@settings(max_examples=40, deadline=None)
def test_angle_system_matches_incidence_loops(kind, seed, n):
    h = _some_map(kind, seed, n)
    rng = np.random.default_rng(seed)
    outer = int(rng.integers(len(h.faces)))
    u = rng.normal(0.0, 0.7, h.n_vertices + len(h.faces) - 1)
    F, J = _angle_system_loops(h, outer, u)
    row, col = _angle_incidences(h, outer)
    assert np.array_equal(_angle_defects(u, row, col), F)
    assert np.array_equal(_angle_jacobian(u, row, col), J)


@given(kind=st.sampled_from(["coned", "closed", *SHAPES]), seed=st.integers(0, 10_000),
       n=st.integers(4, 60), eta=st.sampled_from([None, 1e-3]))
@settings(max_examples=40, deadline=None)
def test_per_edge_outputs_match_edge_loops(kind, seed, n, eta):
    # the arithmetic is the same on any geometry, so random circles do
    h = _some_map(kind, seed, n)
    rng = np.random.default_rng(seed)
    nf = len(h.faces)
    outer = int(rng.integers(nf))
    face_radii = rng.uniform(0.05, 1.0, nf)
    face_radii[outer] = 1.0
    face_centers = rng.normal(size=(nf, 2))
    face_centers[outer] = 0.0
    dp = DoubleCirclePacking(h, outer, rng.normal(size=(h.n_vertices, 2)),
                             rng.uniform(0.05, 1.0, h.n_vertices), face_centers, face_radii)
    assert _double_packing_residuals(dp) == _double_packing_residuals_loop(dp)
    m = odmap.orthodiagonal_from_double_packing(h, dp, eta=eta)
    positions, faces = _orthodiagonal_from_double_packing_loop(h, dp, eta=eta)
    assert np.array_equal(m.positions, positions) and np.array_equal(m.faces, faces)
    assert np.array_equal(m.primal_mask, np.arange(len(positions)) < h.n_vertices)


RECORDED = json.loads((Path(__file__).parent / "data" / "double_pack_fixtures.json").read_text())


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_fixture_packings_match_recorded(key):
    # values recorded before the layout became one breadth-first pass over
    # the faces; the Newton iterates are unchanged, so only the layout's
    # rounding moves the circles, and the solves that stop at angle residual
    # ~5e-12 (cube, octahedron) let a different placement order show at
    # that level
    name, outer = key.split("/")
    h = SHAPES[name]()
    dp = odmap.double_pack(h, outer_face=int(outer))
    for attr, want in RECORDED[key].items():
        assert np.allclose(getattr(dp, attr), want, rtol=0.0, atol=1e-11), attr
    assert _double_packing_residuals(dp) == _double_packing_residuals_loop(dp)
    m = odmap.orthodiagonal_from_double_packing(h, dp)
    positions, faces = _orthodiagonal_from_double_packing_loop(h, dp)
    assert np.array_equal(m.positions, positions) and np.array_equal(m.faces, faces)


def _assert_outer_circles_orthogonal_to_unit_circle(dp):
    # |c_v|^2 = 1 + r_v^2 for every vertex circle on the outer face
    v = np.unique(dp.planar_map.faces[dp.outer_face])
    c2, r2 = (dp.vertex_centers[v] ** 2).sum(axis=1), dp.vertex_radii[v] ** 2
    assert np.all(np.abs(c2 - 1.0 - r2) <= 1e-10 * (1.0 + r2))


# prism outer faces 1 and 2 stall in the Newton line search at angle
# residual ~3e-11, short of the 1e-11 floor it accepts
@pytest.mark.parametrize("name, outer", [(name, outer) for name, make in SHAPES.items()
                                         for outer in range(len(make().faces))
                                         if (name, outer) not in {("prism", 1), ("prism", 2)}])
def test_shape_outer_circles_cross_the_unit_circle_at_right_angles(name, outer):
    _assert_outer_circles_orthogonal_to_unit_circle(odmap.double_pack(SHAPES[name](), outer))


@given(kind=st.sampled_from(["coned", "closed"]), seed=st.integers(0, 10_000), n=st.integers(4, 60))
@settings(max_examples=30, deadline=None)
def test_delaunay_outer_circles_cross_the_unit_circle_at_right_angles(kind, seed, n):
    h = _some_map(kind, seed, n)
    outer = int(np.random.default_rng(seed).integers(len(h.faces)))
    try:
        dp = odmap.double_pack(h, outer_face=outer, max_iter=60)
    # a chord of its boundary cycle leaves a closed map 2-connected, and about
    # half the maps stall or use up 60 Newton steps (the ones that stall take
    # seconds to do so)
    except (StructuralError, PackingError):
        assume(False)
    _assert_outer_circles_orthogonal_to_unit_circle(dp)


def _two_octahedra_glued_at_two_vertices():
    # vertices 0 and 5 of the octahedron share no face; the second copy
    # keeps them and renumbers 1..4 as 6..9: n - e + f = 2, but 0 and 5 each
    # have two corner cycles
    second = {0: 0, 5: 5, 1: 6, 2: 7, 3: 8, 4: 9}
    faces = octahedron_map().faces
    return PlanarMap3C(10, faces + [[second[v] for v in f] for f in faces])


@pytest.mark.parametrize("h, outer, message", [
    (PlanarMap3C(4, [[0, 1, 2], [0, 2, 3]]), 0, "directed edge (0, 1) has no reverse"),
    (PlanarMap3C(4, [[0, 1, 2], [0, 1, 3], [2, 1, 0], [1, 0, 3]]), 0,
     "directed edge (0, 1) in two faces"),
    (PlanarMap3C(8, k4_map().faces + [[v + 4 for v in f] for f in k4_map().faces]), 0,
     "faces do not form a sphere: 2 component(s), 8 vertex rotations on 8 vertices, n - e + f = 4"),
    (_two_octahedra_glued_at_two_vertices(), 0,
     "faces do not form a sphere: 1 component(s), 12 vertex rotations on 10 vertices, n - e + f = 2"),
    (PlanarMap3C(4, [[0, 1], [1, 0]]), 0, "face with fewer than 3 corners"),
    (cube_map(), 6, "outer face 6 out of range for 6 faces"),
    (cube_map(), -1, "outer face -1 out of range for 6 faces"),
], ids=["no-reverse", "two-faces", "two-spheres", "pinched", "digon", "outer-face-6",
        "outer-face-negative"])
def test_malformed_face_lists_rejected(h, outer, message):
    with pytest.raises(StructuralError, match=re.escape(message)):
        odmap.double_pack(h, outer_face=outer)


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
    _assert_3_connected_matches_oracle(closed(tri) if close else coned(tri))


def _merged(h, rng, k):
    """h with k random attempts at merging the two faces across an edge
    into one (an attempt on an edge with one face on both sides does
    nothing).  Merged faces may visit a vertex twice."""
    faces = [list(f) for f in h.faces]
    for _ in range(k):
        i = int(rng.integers(len(faces)))
        f = faces[i]
        p = int(rng.integers(len(f)))
        a, b = f[p], f[(p + 1) % len(f)]
        j, q = next((j, q) for j, g in enumerate(faces) for q in range(len(g))
                    if (g[q], g[(q + 1) % len(g)]) == (b, a))
        if j == i:
            continue
        g = faces[j]
        # f from b round to a, then g from a round to b, without repeating a and b
        merged = f[p + 1:] + f[:p + 1] + (g[q + 1:] + g[:q + 1])[1:-1]
        faces = [c for t, c in enumerate(faces) if t not in (i, j)] + [merged]
    return PlanarMap3C(h.n_vertices, faces)


def _glued(t1, t2, rng):
    """Two triangulations glued at a boundary vertex, the outer face going
    round both and so visiting that vertex twice, randomly relabelled."""
    c1, c2 = t1.boundary_cycle, t2.boundary_cycle
    i, j = int(rng.integers(len(c1))), int(rng.integers(len(c2)))
    label = np.empty(t2.n_vertices, int)
    rest = np.setdiff1d(np.arange(t2.n_vertices), [c2[j]])
    label[rest] = t1.n_vertices + np.arange(rest.size)
    label[c2[j]] = c1[i]
    outer = c1[i:] + c1[:i] + label[c2[j:] + c2[:j]].tolist()
    faces = t1.faces.tolist() + label[t2.faces].tolist() + [outer]
    n = t1.n_vertices + t2.n_vertices - 1
    perm = rng.permutation(n)
    return PlanarMap3C(n, [perm[f].tolist() for f in faces])


@given(seed=st.integers(0, 10_000), n=st.integers(4, 30), close=st.booleans(),
       merges=st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_check_3_connected_on_merged_faces_matches_pairwise_oracle(seed, n, close, merges):
    tri = odmap.random_delaunay_triangulation(n, seed=seed)
    h = _merged(closed(tri) if close else coned(tri), np.random.default_rng(seed), merges)
    _assert_3_connected_matches_oracle(h)


@given(seed=st.integers(0, 10_000), n1=st.integers(3, 20), n2=st.integers(3, 20))
@settings(max_examples=30, deadline=None)
def test_check_3_connected_on_glued_triangulations_matches_pairwise_oracle(seed, n1, n2):
    rng = np.random.default_rng(seed)
    t1 = odmap.random_delaunay_triangulation(n1, seed=seed)
    t2 = odmap.random_delaunay_triangulation(n2, seed=seed + 1)
    _assert_3_connected_matches_oracle(_glued(t1, t2, rng))


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
