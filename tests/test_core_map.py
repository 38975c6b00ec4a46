import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmap
from odmap import cli, core_map
from odmap.core_map import (
    AugmentedDuals,
    _biconnected_components,
    martingale_residuals,
    orientation_residuals,
)
from odmap.errors import StructuralError
from odmap.flows import argument_flow, equicontinuity_probe
from odmap.geometry import signed_area

from conftest import central_primal_vertex


def test_diamond_validates(diamond):
    report = odmap.validate(diamond, tol=1e-9)
    assert report.passed
    assert report.worst_orthogonality <= 1e-15


def test_face_areas_are_computed_once_per_map_and_read_only():
    m = odmap.rotated_grid("square", 8)
    areas = m.face_areas()
    assert m.face_areas() is areas and np.array_equal(areas, signed_area(m.positions[m.faces]))
    assert m.area() == float(areas.sum())
    with pytest.raises(ValueError):
        areas[0] = 1.0
    # a perturbed map shares the base's side table, not its areas
    p = odmap.perturbed(m, 0.3, seed=1)
    assert p._sides is m._sides and p.face_areas() is not areas
    assert np.array_equal(p.face_areas(), signed_area(p.positions[p.faces]))
    assert not np.array_equal(p.face_areas(), areas)


def test_diameter_is_computed_once_per_map(monkeypatch):
    m = odmap.rotated_grid("disk", 16)
    calls = []
    monkeypatch.setattr(core_map, "max_distance", lambda p: calls.append(p) or 1.25)
    assert m.diameter() == m.diameter() == 1.25 and len(calls) == 1
    assert calls[0].tolist() == m.positions[m.boundary_walk].tolist()


def test_moved_dual_vertex_fails_orthogonality(diamond):
    pos = diamond.positions.copy()
    pos[5] = [1.5, 1.0]  # dual vertex (1, 1) pushed sideways
    bad = odmap.OrthodiagonalMap(pos, diamond.primal_mask, diamond.faces)
    report = odmap.validate(bad, tol=1e-9)
    assert not report.passed
    assert not report.checks["faces/orthogonal_diagonals"][0]
    # only the single face containing that vertex is flagged
    assert report.offending_faces == [0]


def test_reversed_quad_fails_orientation(diamond):
    faces = diamond.faces.copy()
    faces[1] = faces[1][::-1]
    bad = odmap.OrthodiagonalMap(diamond.positions, diamond.primal_mask, faces)
    report = odmap.validate(bad, tol=1e-9)
    assert not report.checks["faces/ccw_orientation"][0]


def test_dangling_vertex_id_is_structural(diamond):
    data = diamond.to_json_dict()
    data["faces"][0][1] = 999
    with pytest.raises(StructuralError):
        odmap.OrthodiagonalMap.from_json_dict(data)
    # building with a bad raw index reports a structural failure, not geometric
    faces = diamond.faces.copy()
    faces[0, 1] = 77
    bad = odmap.OrthodiagonalMap(diamond.positions, diamond.primal_mask, faces)
    report = odmap.validate(bad)
    assert not report.checks["structure/face_ids"][0]


def test_mesh_size_examples(diamond):
    assert diamond.mesh_size() == pytest.approx(np.sqrt(2), abs=1e-15)
    # single quad with unequal diagonals: max edge |v2 w2| = sqrt(5)
    quad = odmap.OrthodiagonalMap(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 2.0]]),
        np.array([True, False, True, False]),
        np.array([[0, 1, 2, 3]]),
    )
    assert odmap.validate(quad).passed
    assert quad.mesh_size() == pytest.approx(np.sqrt(5), abs=1e-15)


def test_mesh_size_matches_generator_declared(grid16_square):
    # derived value: measure every edge and take the max
    p = grid16_square.positions
    lengths = [np.hypot(*(p[b] - p[a])) for a, b in grid16_square.edges]
    assert grid16_square.mesh_size() == pytest.approx(max(lengths))
    assert grid16_square.mesh_size() == pytest.approx(np.sqrt(2) / 16)


def test_conductance_examples():
    quad = odmap.OrthodiagonalMap(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([True, False, True, False]),
        np.array([[0, 1, 2, 3]]),
    )
    assert quad.primal_network().conductances[0] == pytest.approx(1.0)
    assert quad.dual_network().conductances[0] == pytest.approx(1.0)

    tall = odmap.OrthodiagonalMap(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 2.0]]),
        np.array([True, False, True, False]),
        np.array([[0, 1, 2, 3]]),
    )
    assert tall.primal_network().conductances[0] == pytest.approx(1.5)
    assert tall.dual_network().conductances[0] == pytest.approx(2.0 / 3.0)


def test_diamond_primal_network_is_star(diamond):
    net = diamond.primal_network()
    assert np.allclose(net.conductances, 1.0)
    assert sorted((min(t, h), max(t, h)) for t, h in
                  zip(net.tails_labels, net.heads_labels)) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_networks_connected(grid16_square, packed500):
    for m in (grid16_square, packed500[2]):
        assert m.primal_network().is_connected
        assert m.dual_network().is_connected


def test_duality_counts(grid16_square):
    m = grid16_square
    assert m.primal_network().n_edges == m.n_faces
    assert m.dual_network().n_edges == m.n_faces


def test_networks_built_once(grid16_square):
    m = odmap.OrthodiagonalMap(grid16_square.positions, grid16_square.primal_mask,
                               grid16_square.faces)
    assert m.primal_network() is m.primal_network()
    assert m.dual_network() is m.dual_network()
    # the shared network solves exactly as one built afresh from the faces
    dp, dd = m.diagonal_lengths()
    fresh = odmap.Network(m.primal_vertices, m.faces[:, 0], m.faces[:, 2], dd / dp)
    tf = odmap.get_test_function("exp_x_cos_y")
    bdry, _ = m.boundary_vertices()
    data = {int(v): float(x) for v, x in zip(bdry, tf(m.positions[bdry]))}
    expected = odmap.harmonic_extension(odmap.DirichletProblem(fresh, data)).values
    for _ in range(2):
        assert np.array_equal(odmap.solve_dirichlet(m, tf).values, expected)


def test_solves_exit_measures_and_flows_build_no_dual_network(monkeypatch, grid32_centered):
    built = []
    network = core_map.OrthodiagonalMap._network
    monkeypatch.setattr(core_map.OrthodiagonalMap, "_network", lambda m, k: built.append(k) or network(m, k))
    m = odmap.OrthodiagonalMap(grid32_centered.positions, grid32_centered.primal_mask, grid32_centered.faces)
    x = central_primal_vertex(m)
    odmap.solve_dirichlet(m, odmap.get_test_function("exp_x_cos_y"))
    odmap.exit_measure_vs_arcs(m, x, k=8)
    argument_flow(m, x, 0.3)
    assert built == [0]
    # the dual network is built on first use, once, and matches one built afresh
    dual = m.dual_network()
    assert m.dual_network() is dual and built == [0, 1]
    dp, dd = m.diagonal_lengths()
    fresh = odmap.Network(m.dual_vertices, m.faces[:, 1], m.faces[:, 3], dp / dd)
    for name in ("labels", "tails", "heads", "conductances"):
        assert np.array_equal(getattr(dual, name), getattr(fresh, name))


def test_boundary_vertices_diamond(diamond):
    bp, bd = diamond.boundary_vertices()
    assert sorted(bp) == [1, 2, 3, 4]
    assert sorted(bd) == [5, 6, 7, 8]
    interior_p, interior_d = diamond.interior_vertices()
    assert list(interior_p) == [0]
    assert len(interior_d) == 0


def test_vertex_classes_are_cached_read_only_index_arrays(packed500):
    for m in (odmap.diamond_map(), odmap.rotated_grid("disk", 16), packed500[2]):
        b, p = m.boundary_vertex_mask, m.primal_mask
        classes = m.boundary_vertices() + m.interior_vertices()
        assert all(x is y for x, y in zip(classes, m.boundary_vertices() + m.interior_vertices()))
        for got, mask in zip(classes, (b & p, b & ~p, ~b & p, ~b & ~p)):
            assert np.array_equal(got, np.flatnonzero(mask))
            with pytest.raises(ValueError, match="read-only"):
                got[:1] = 0
        with pytest.raises(ValueError, match="read-only"):
            b[:1] = True


def test_callers_only_read_the_vertex_classes(grid32_centered):
    """Every caller of the cached vertex-class arrays and mask runs on them
    (a write would raise) and leaves them as they were."""
    m = odmap.OrthodiagonalMap(grid32_centered.positions, grid32_centered.primal_mask,
                               grid32_centered.faces)
    before = [c.copy() for c in m.boundary_vertices() + m.interior_vertices()]
    x = cli._central_primal_vertex(m)
    y = central_primal_vertex(m, target=(0.2, 0.0))
    martingale_residuals(m)
    argument_flow(m, x, 0.3)
    h = odmap.solve_dirichlet(m, odmap.get_test_function("xy"))
    equicontinuity_probe(m, h, x, y, 0.45)
    odmap.exit_measure_vs_arcs(m, x, k=8)
    odmap.exit_measure_vs_arcs(m, int(m.boundary_vertices()[0][0]), k=8, center=(-0.1, -0.1))
    after = m.boundary_vertices() + m.interior_vertices()
    assert all(np.array_equal(u, v) for u, v in zip(before, after))


def test_boundary_walk_alternates(grid16_square):
    walk = grid16_square.boundary_walk
    pm = grid16_square.primal_mask
    assert all(pm[a] != pm[b] for a, b in zip(walk, np.roll(walk, -1)))
    # edges bordering exactly one face are exactly the walk edges
    walk_edges = {(min(a, b), max(a, b)) for a, b in zip(walk, np.roll(walk, -1))}
    assert walk_edges == set(map(tuple, grid16_square.edges[grid16_square.edge_face_count == 1].tolist()))


def test_single_quad_all_boundary():
    quad = odmap.OrthodiagonalMap(
        np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([True, False, True, False]),
        np.array([[0, 1, 2, 3]]),
    )
    bp, bd = quad.boundary_vertices()
    assert len(bp) + len(bd) == 4
    ip, idual = quad.interior_vertices()
    assert len(ip) == 0 and len(idual) == 0


def test_bipartite_everywhere(grid16_square, packed500):
    for m in (grid16_square, packed500[2]):
        pm = m.primal_mask
        assert all(pm[a] != pm[b] for a, b in m.edges)


def test_martingale_identity(grid16_square, packed500):
    for m in (grid16_square, packed500[2]):
        res = martingale_residuals(m)
        net = m.primal_network()
        interior, _ = m.interior_vertices()
        pi = net.pi[[net.index_of(v) for v in interior]]
        assert np.all(res <= 1e-9 * pi * m.mesh_size())


def test_orientation_lemma(grid16_square, packed500):
    for m in (grid16_square, packed500[2]):
        assert orientation_residuals(m).max() <= 1e-9


# ---------------------------------------------------------------------------
# augmented duals


def test_augmented_diamond(diamond):
    aug = odmap.augmented_duals(diamond)
    k = 4  # boundary dual vertices
    assert aug.primal.n_edges == diamond.n_faces + k
    new = aug.dual_pairs[aug.n_core_edges:]
    assert np.all(new[:, 1] == AugmentedDuals.APEX)
    # the new primal edges form the square on the outer primal vertices
    sq = {(min(t, h), max(t, h))
          for t, h in zip(aug.primal.tails_labels[diamond.n_faces:],
                          aug.primal.heads_labels[diamond.n_faces:])}
    assert sq == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_augmented_counts(grid16_square):
    aug = odmap.augmented_duals(grid16_square)
    _, bd = grid16_square.boundary_vertices()
    assert len(aug.dual_pairs) - aug.n_core_edges == len(bd)


def test_augmented_edges_hug_their_dual_vertex(grid16_square):
    # each new primal edge is drawn (as a polyline) within mesh distance of
    # the boundary dual vertex it separates from infinity
    m = grid16_square
    aug = odmap.augmented_duals(m)
    eps = m.mesh_size()
    for k, (a, bend, b) in enumerate(aug.new_edge_polylines):
        w = aug.dual_pairs[m.n_faces + k, 0]
        wp = m.positions[w]
        assert np.hypot(*(bend - wp)) <= eps
        assert np.hypot(*(a - wp)) <= eps + 1e-12
        assert np.hypot(*(b - wp)) <= eps + 1e-12


def test_augmented_euler_duality(grid16_square):
    # faces of the augmented primal must equal vertices of the augmented dual
    m = grid16_square
    aug = odmap.augmented_duals(m)
    V = len(m.primal_vertices)
    E = aug.primal.n_edges
    F = 2 - V + E  # Euler's formula for the connected plane multigraph
    n_dual_vertices = len(m.dual_vertices) + 1  # apex
    assert F == n_dual_vertices


# ---------------------------------------------------------------------------
# blocks


def test_blocks_identity(grid16_square):
    """A map of one piece on all its vertices comes back as itself, and
    a clipped grid keeps the side table that the clip's block split built."""
    out = odmap.blocks(grid16_square)
    assert len(out) == 1
    assert out[0] is grid16_square
    assert odmap.validate(out[0]).passed
    assert "_sides" in odmap.rotated_grid("disk", 32).__dict__


@pytest.mark.parametrize("domain", ["square", "disk"])
@pytest.mark.parametrize("n", [4, 16, 32, 33, 64, 128])  # 16/32/64 and 128: the benchmark grids
def test_blocks_of_one_piece_return_the_map_without_a_block_search(domain, n, monkeypatch):
    m = odmap.rotated_grid(domain, n)

    def no_search(*args):
        raise AssertionError("block search on a map of one piece")

    monkeypatch.setattr(core_map, "_biconnected_components", no_search)
    out = odmap.blocks(m)
    assert len(out) == 1 and out[0] is m


def test_blocks_drop_a_vertex_on_no_face():
    g = odmap.diamond_map()
    m = odmap.OrthodiagonalMap(np.vstack([g.positions, [[5.0, 5.0]]]),
                               np.append(g.primal_mask, True), g.faces)
    (out,) = odmap.blocks(m)
    assert out is not m and out.n_vertices == g.n_vertices
    assert np.array_equal(out.faces, g.faces) and np.array_equal(out.positions, g.positions)


def test_blocks_two_diamonds():
    from odmap.generators import two_diamonds_sharing_vertex

    glued = two_diamonds_sharing_vertex()
    report = odmap.validate(glued)
    assert not report.checks["boundary/single_simple_walk"][0]
    out = odmap.blocks(glued)
    assert len(out) == 2
    for block in out:
        assert block.n_faces == 4
        assert odmap.validate(block).passed
    assert sum(b.n_faces for b in out) == glued.n_faces


def test_blocks_match_networkx_oracle():
    nx = pytest.importorskip("networkx")

    def id_edges(pairs):
        return frozenset(tuple(sorted(e)) for e in pairs)

    def assert_edge_partition_matches(m):
        G = nx.Graph()
        G.add_edges_from(m.ids[m.edges].tolist())
        ref = [id_edges(comp) for comp in nx.biconnected_component_edges(G)]
        ours = odmap.blocks(m)
        got = [id_edges(b.ids[b.edges].tolist()) for b in ours]
        assert sorted(ref, key=sorted) == sorted(got, key=sorted)
        assert sum(b.n_faces for b in ours) == m.n_faces

    rng = np.random.default_rng(17)
    g = odmap.rotated_grid("square", 10)
    for _ in range(8):
        keep = np.flatnonzero(rng.random(g.n_faces) < 0.6)
        if keep.size:
            assert_edge_partition_matches(g.submap(keep))
    for centres, _ in PINCHES.values():
        m = _grid_faces_at(8, centres)
        assert_edge_partition_matches(m)
        for seed in range(3):
            assert_edge_partition_matches(_relabelled(m, seed))


def test_blocks_of_clipped_pinch():
    # clipping a disk grid with a huge hole-free buffer can pinch; emulate by
    # keeping two face groups that share one vertex
    g = odmap.rotated_grid("square", 8)
    # find two faces sharing exactly one vertex
    chosen = None
    for i in range(g.n_faces):
        for j in range(i + 1, g.n_faces):
            shared = set(g.faces[i]) & set(g.faces[j])
            if len(shared) == 1:
                chosen = (i, j)
                break
        if chosen:
            break
    sub = g.submap(list(chosen))
    out = odmap.blocks(sub)
    assert len(out) == 2
    assert all(odmap.validate(b).passed for b in out)


def _blocks_oracle(omap):
    """Blocks by Hopcroft-Tarjan over every edge of the map, each face with
    the block of its first side, largest first, then by least id."""
    comp, n_comps = _biconnected_components(omap.n_vertices, omap.edges)
    face_comp = comp[omap._sides.edge[::4]]
    out = [omap.submap(np.flatnonzero(face_comp == c)) for c in range(n_comps)
           if (face_comp == c).any()]
    out.sort(key=lambda m: (-m.n_faces, int(m.ids.min())))
    return out


def _assert_blocks_match_oracle(omap):
    got, want = odmap.blocks(omap), _blocks_oracle(omap)
    assert [b.n_faces for b in got] == [b.n_faces for b in want]
    for g, w in zip(got, want):
        for a, b in ((g.faces, w.faces), (g.ids, w.ids), (g.positions, w.positions),
                     (g.primal_mask, w.primal_mask)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


def _grid_faces_at(n, centres):
    """rotated_grid("square", n) cut down to the faces centred at the given
    lattice points (p, q), p + q even."""
    g = odmap.rotated_grid("square", n)
    at = {tuple(c): i for i, c in
          enumerate(np.rint(g.positions[g.faces].mean(1) * n).astype(int).tolist())}
    return g.submap([at[c] for c in centres])


def _relabelled(omap, seed):
    """The map with its vertices in random order, each keeping its id."""
    perm = np.random.default_rng(seed).permutation(omap.n_vertices)
    inv = np.argsort(perm)
    return odmap.OrthodiagonalMap(omap.positions[inv], omap.primal_mask[inv], perm[omap.faces],
                                  ids=omap.ids[inv])


RING = [(2, 2), (4, 2), (4, 4), (2, 4)]  # four faces pinched around a hole
PINCHES = {  # face centres on rotated_grid("square", 8), and the block sizes
    "ring": (RING, [4]),
    # two rings of pinches share face (4, 4)
    "rings_share_a_face": (RING + [(6, 4), (6, 6), (4, 6)], [7]),
    "path_into_ring": (RING[:3] + [(6, 4), (6, 6), (4, 6)], [4, 1, 1]),
    # (3, 3) has an edge on (2, 2) and (4, 2)
    "path_and_edge": ([(2, 2), (4, 2), (6, 2), (3, 3)], [3, 1]),
    "ring_and_tails": ([(3, 3), (5, 3), (3, 5), (5, 5), (1, 3), (3, 1)], [4, 1, 1]),
    "bowtie": ([(2, 2), (4, 2)], [1, 1]),
}


@pytest.mark.parametrize("centres, sizes", list(PINCHES.values()), ids=list(PINCHES))
def test_blocks_of_pinch_structures_match_oracle(centres, sizes):
    m = _grid_faces_at(8, centres)
    assert [b.n_faces for b in _assert_blocks_match_oracle(m)] == sizes
    for seed in range(20):
        _assert_blocks_match_oracle(_relabelled(m, seed))


def test_blocks_of_faces_that_repeat_a_corner_come_in_search_order():
    # each face repeats corner 1 (id 4), so its sides span two of the three
    # bridges at 1; each face goes with its first side, and the two one-face
    # blocks, tied on size and least id, come in the order the search pops them
    g = odmap.rotated_grid("square", 4)
    v = [1, 4, 5, 7]
    m = odmap.OrthodiagonalMap(g.positions[v], g.primal_mask[v],
                               [[1, 2, 1, 0], [1, 0, 1, 3]], ids=v)
    assert [b.ids.tolist() for b in _assert_blocks_match_oracle(m)] == [[1, 4, 5], [1, 4, 7]]


def test_blocks_of_glued_diamonds_match_oracle():
    from odmap.generators import two_diamonds_sharing_vertex

    glued = two_diamonds_sharing_vertex()
    assert [b.n_faces for b in _assert_blocks_match_oracle(glued)] == [4, 4]
    for seed in range(20):
        _assert_blocks_match_oracle(_relabelled(glued, seed))


@given(seed=st.integers(0, 10_000), n=st.sampled_from([4, 6, 10, 16]),
       domain=st.sampled_from(["square", "disk"]), keep=st.floats(0.1, 0.9),
       relabel=st.booleans())
@example(seed=17, n=10, domain="square", keep=0.6, relabel=False)
@settings(max_examples=150, deadline=None)
def test_blocks_of_random_clips_match_oracle(seed, n, domain, keep, relabel):
    """Face partition and block order, ties included, agree with the
    full-map block search on randomly clipped grids."""
    g = odmap.rotated_grid(domain, n)
    rng = np.random.default_rng(seed)
    faces = np.flatnonzero(rng.random(g.n_faces) < keep)
    if not faces.size:
        return
    m = g.submap(faces)
    _assert_blocks_match_oracle(_relabelled(m, seed) if relabel else m)


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_bit_identical(grid16_square, tmp_path):
    path = tmp_path / "map.json"
    text1 = grid16_square.to_json(path)
    loaded = odmap.OrthodiagonalMap.from_json(path)
    assert odmap.validate(loaded).passed
    text2 = loaded.to_json()
    assert text1 == text2
    assert json.loads(text1)["format"] == "odmap/1"


def test_format_version_rejected():
    with pytest.raises(StructuralError):
        odmap.OrthodiagonalMap.from_json_dict({"format": "odmap/9", "vertices": [], "faces": []})


def test_degenerate_diagonal_raises_on_network(diamond):
    pos = diamond.positions.copy()
    pos[1] = pos[0]  # collapse the primal diagonal of face 0
    bad = odmap.OrthodiagonalMap(pos, diamond.primal_mask, diamond.faces)
    report = odmap.validate(bad)
    assert not report.checks["faces/nondegenerate_diagonals"][0]
    with pytest.raises(odmap.DegenerateFaceError):
        bad.primal_network()


def test_validate_never_crashes_on_garbage():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 10))
        pos = rng.standard_normal((n, 2))
        if rng.random() < 0.15 and n > 0:
            pos[rng.integers(0, n)] = [np.nan, 0.3]
        primal = rng.random(n) < 0.5
        faces = rng.integers(0, max(n, 1) + (2 if rng.random() < 0.2 else 0),
                             size=(m, 4))
        omap = odmap.OrthodiagonalMap(pos, primal, faces)
        report = odmap.validate(omap)  # must report, never raise
        assert isinstance(report.passed, bool)
