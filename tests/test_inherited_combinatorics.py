"""Maps built from a parent's combinatorics inherit their side table, boundary
cycle and structural checks; each must equal what the map derives afresh."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmap
from odmap import dirichlet, generators, network
from odmap import packing
from odmap.core_map import OrthodiagonalMap, SideTable, _structural_checks, side_table, validate
from odmap.errors import PackingError
from odmap.geometry import signed_area
from odmap.packing import DoubleCirclePacking, PlanarMap3C

from conftest import coned
from test_packing import hub_triangulation, polygon_triangulation

INHERITED = ("_sides", "_boundary_cycle", "_structure")


def _fresh(m):
    return OrthodiagonalMap(m.positions, m.primal_mask, m.faces, ids=m.ids)


def _assert_inherits(m, structure):
    """m was given its side table and boundary cycle (and its structural
    checks, if structure), and each, and the walk oriented from the cycle,
    equals the fresh map's."""
    assert {"_sides", "_boundary_cycle"} <= vars(m).keys()
    assert ("_structure" in vars(m)) == structure
    want = side_table(m.faces)
    for name in SideTable._fields:
        got = getattr(m._sides, name)
        assert got.dtype == getattr(want, name).dtype, name
        assert np.array_equal(got, getattr(want, name)), name
    fresh = _fresh(m)
    assert np.array_equal(m.boundary_walk, fresh.boundary_walk)
    for tol in (1e-9, 1e-17):  # at 1e-17 rounding fails orthogonality
        assert validate(m, tol=tol).to_json_dict() == validate(fresh, tol=tol).to_json_dict()


def _inheriting_map(kind, seed, size):
    """(map, whether its structural checks are inherited), or None when the
    double packing stalls."""
    if kind in ("delaunay", "hub", "polygon"):
        tri = {"delaunay": lambda: odmap.random_delaunay_triangulation(size + 3, seed=seed),
               "hub": lambda: hub_triangulation(3 + size % 10, 2 + seed % 3),
               "polygon": lambda: polygon_triangulation(3 + size % 10, seed)}[kind]()
        return odmap.orthodiagonal_from_packing(tri, odmap.pack_in_disk(tri)), True
    if kind == "perturbed":
        base = odmap.rotated_grid("disk" if seed % 2 else "square", 4 + size % 12)
        return odmap.perturbed(base, 0.3, seed=seed), True
    h = coned(odmap.random_delaunay_triangulation(size + 3, seed)) if kind == "coned" \
        else generators.SHAPES[kind]()
    try:  # a Newton budget, as the benchmark gives it: some inputs crawl for seconds
        dp = odmap.double_pack(h, outer_face=seed % len(h.faces), max_iter=200)
    except PackingError:
        return None
    return odmap.orthodiagonal_from_double_packing(h, dp), True


@given(kind=st.sampled_from(["delaunay", "hub", "polygon", "perturbed", "cube", "octahedron",
                             "coned"]),
       seed=st.integers(0, 10_000), size=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_inherited_combinatorics_match_a_fresh_map(kind, seed, size):
    built = _inheriting_map(kind, seed, size)
    if built is not None:
        _assert_inherits(*built)


@pytest.mark.parametrize("kind", ["delaunay", "hub", "polygon", "perturbed", "cube", "octahedron",
                                  "coned"])
def test_each_family_inherits(kind):
    built = _inheriting_map(kind, 3, 20)
    assert built is not None
    _assert_inherits(*built)


def test_perturbed_candidates_report_as_fresh_maps(monkeypatch):
    # every candidate shares its base's structural checks; its geometric
    # ones (an orthogonality failure at a tight tol, orientation failures of
    # the oversized first attempts) must read as a fresh map's
    seen = []

    def spy(cand, tol):
        assert all(vars(cand)[k] is vars(base)[k] for k in INHERITED)
        for t in (tol, 1e-17):
            seen.append((validate(cand, tol=t).to_json_dict(),
                         validate(_fresh(cand), tol=t).to_json_dict()))
        return validate(cand, tol=tol)

    base = odmap.rotated_grid("square", 8)
    monkeypatch.setattr(generators, "validate", spy)
    odmap.perturbed(base, 5.0, seed=1)
    assert all(got == want for got, want in seen)
    checks = [got["checks"] for got, _ in seen]
    assert any(not c["faces/orthogonal_diagonals"]["passed"] for c in checks)
    assert any(not c["faces/ccw_orientation"]["passed"] for c in checks)


def test_shared_structure_keeps_the_structural_failures():
    # a base whose faces break structural checks passes them on as they are
    base = odmap.rotated_grid("square", 6)
    faces = np.vstack([base.faces, base.faces[:1]])  # face 0 twice: its edges border 3 or 4
    broken = OrthodiagonalMap(base.positions, base.primal_mask, faces)
    cand = OrthodiagonalMap(base.positions + 1e-3, base.primal_mask, faces)
    vars(cand).update(_sides=broken._sides, _structure=broken._structure)
    report = validate(cand)
    assert not report.checks["edges/at_most_two_faces"][0] and report.offending_edges
    assert report.to_json_dict() == validate(_fresh(cand)).to_json_dict()


def test_double_packing_of_a_pinched_face_inherits_nothing():
    # two triangles on the sphere that share only vertex 0: the outer face
    # visits it twice, so the map derives its own table and finds the pinch
    h = PlanarMap3C(5, [[0, 1, 2], [0, 3, 4], [0, 2, 1, 0, 4, 3]])
    centers = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, -0.5], [-1.0, 0.5], [-1.0, -0.5]])
    dp = DoubleCirclePacking(h, 2, centers, np.full(5, 0.4),
                             np.array([[0.7, 0.0], [-0.7, 0.0], [0.0, 0.0]]),
                             np.array([0.3, 0.3, 1.0]))
    m = odmap.orthodiagonal_from_double_packing(h, dp)
    assert not set(INHERITED) & vars(m).keys()
    report = validate(m)
    assert not report.checks["boundary/single_simple_walk"][0]
    assert report.to_json_dict() == validate(_fresh(m)).to_json_dict()


def test_non_finite_positions_end_validate_before_the_walk():
    # the structural checks read no position, so a boundary vertex at
    # infinity warns of nothing (pytest turns RuntimeWarnings into errors)
    m = odmap.rotated_grid("square", 6)
    p = m.positions.copy()
    p[m.boundary_walk[3]] = [np.inf, -np.inf]
    report = validate(OrthodiagonalMap(p, m.primal_mask, m.faces))
    assert list(report.checks) == ["structure/face_ids", "structure/finite_positions"]
    assert not report.passed


def _packed_map(name):
    """A packed or double-packed map of a named input, and its parent (the
    coned Delaunay maps at seed 4, which double-pack at N = 30, 60 and 120)."""
    if name in generators.SHAPES or name.startswith("coned"):
        h = (generators.SHAPES[name]() if name in generators.SHAPES
             else coned(odmap.random_delaunay_triangulation(int(name[5:]), 4)))
        return odmap.orthodiagonal_from_double_packing(h, odmap.double_pack(h, max_iter=200)), h
    kind, size = name.split("-")
    tri = {"delaunay": lambda n: odmap.random_delaunay_triangulation(n, seed=1),
           "hub": lambda n: hub_triangulation(n, 3), "lattice": odmap.triangular_disk_triangulation,
           "polygon": lambda n: polygon_triangulation(n, 5)}[kind](int(size))
    return odmap.orthodiagonal_from_packing(tri, odmap.pack_in_disk(tri)), tri


@pytest.mark.parametrize("name", ["delaunay-1000", "delaunay-3000", "hub-80", "lattice-12",
                                  "polygon-12", "cube", "octahedron", "prism", "coned30",
                                  "coned60", "coned120"])
def test_quads_turn_where_their_shoelace_area_is_negative(monkeypatch, name):
    # _quad_map turns quad [e0, w(s1), e1, w(s2)] where s1 runs e0 -> e1,
    # without a shoelace pass; on a packing that is where the shoelace
    # formula finds the quad clockwise
    seen, quad_map = [], packing._quad_map

    def spy(positions, n, s, s1, s2, dual, ext, outer):
        seen.append((positions, s, s1, s2, dual, ext))
        return quad_map(positions, n, s, s1, s2, dual, ext, outer)

    monkeypatch.setattr(packing, "_quad_map", spy)
    m, _ = _packed_map(name)
    (positions, s, s1, s2, dual, ext), = seen
    quads = np.column_stack([s.edges[:, 0], dual[s.face[s1]], s.edges[:, 1],
                             np.where(s2 < 0, ext, dual[s.face[s2]])])
    assert np.array_equal(signed_area(positions[quads]) < 0, s.tail[s1] == s.edges[:, 0])
    assert (m.face_areas() > 0).all()


@pytest.mark.parametrize("name", ["cube", "octahedron", "prism", "coned30", "coned60", "coned120"])
def test_double_packed_map_takes_the_structural_checks_it_passes(name):
    # double_pack leaves its planar map marked 3-connected, and the map built
    # from it takes its structural checks as passed: each field is what the
    # checks compute
    m, h = _packed_map(name)
    assert h._3_connected and h.check_3_connected() is h
    assert "_structure" in vars(m)
    want = _structural_checks(_fresh(m))
    for part in ("checks", "worst_orthogonality", "offending_faces", "offending_edges"):
        assert getattr(m._structure, part) == getattr(want, part), part


@pytest.mark.parametrize("size, seed", [(1000, 1), (3000, 2)])
def test_a_pack_map_solve_pipeline_picks_one_fill_reducing_order(monkeypatch, size, seed):
    # the radius solve's first factor picks its order by MMD; its later
    # factors and the packed map's interior solve factor in that order
    specs, factor = [], network.definite_splu

    def recording(A, permc_spec="MMD_AT_PLUS_A"):
        specs.append(permc_spec)
        return factor(A, permc_spec)

    monkeypatch.setattr(network, "definite_splu", recording)
    monkeypatch.setattr(packing, "definite_splu", recording)
    tri = generators.random_delaunay_triangulation(size, seed)
    p = packing.pack_in_disk(tri)
    m = packing.orthodiagonal_from_packing(tri, p)
    tf = dirichlet.get_test_function("exp_x_cos_y")
    h = dirichlet.solve_dirichlet(m, tf)
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * p.residuals["radius_solve"]["factorizations"]
    solver = m.primal_network()._grounded
    assert np.array_equal(solver.interior, p._elimination)
    assert np.array_equal(np.sort(p._elimination), np.flatnonzero(~tri.boundary_mask))

    # the same map without the inherited order factors by MMD, with the same fill
    fresh = _fresh(m)
    want = dirichlet.solve_dirichlet(fresh, tf)
    assert specs[-1] == "MMD_AT_PLUS_A"
    lu, mmd = solver._lu, fresh.primal_network()._grounded._lu
    assert lu.L.nnz + lu.U.nnz == mmd.L.nnz + mmd.U.nnz
    assert np.abs(h.values - want.values).max() <= 1e-12


def test_an_inherited_order_serves_only_its_own_interior():
    # another boundary set factors by MMD, in ascending order
    tri = generators.random_delaunay_triangulation(300, 1)
    m = packing.orthodiagonal_from_packing(tri, packing.pack_in_disk(tri))
    net = m.primal_network()
    assert net._elimination is not None and m.dual_network()._elimination is None
    boundary = np.union1d(np.flatnonzero(tri.boundary_mask), net._elimination[:1])
    solver = net.grounded(boundary)
    assert np.array_equal(solver.interior, np.setdiff1d(np.arange(net.n_vertices), boundary))
