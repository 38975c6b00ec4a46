"""The face-side table against the per-face dict/set derivations it replaced."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmap
from odmap.core_map import face_sides
from odmap.errors import StructuralError
from odmap.geometry import signed_area
from odmap.packing import Triangulation

# -- reference derivations, one face side at a time ---------------------------


def _edge_faces_oracle(faces):
    """{(a, b) with a < b: [face of each side on that edge]} in side order."""
    out: dict = {}
    for i, f in enumerate(faces):
        for a, b in zip(f, np.roll(f, -1)):
            out.setdefault((min(int(a), int(b)), max(int(a), int(b))), []).append(i)
    return out


def _boundary_walk_oracle(omap, boundary_edges):
    adj: dict = {}
    for a, b in boundary_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    walk = [start, min(adj[start])]
    while True:
        prev, cur = walk[-2], walk[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        walk.append(nxt)
    walk = np.array(walk, int)
    return walk[::-1] if signed_area(omap.positions[walk]) < 0 else walk


def _boundary_cycle_oracle(tri):
    directed = {(int(a), int(b)) for f in tri.faces for a, b in zip(f, np.roll(f, -1))}
    nxt = {b: a for (a, b) in directed if (b, a) not in directed}
    cyc = [min(nxt)]
    while nxt[cyc[-1]] != cyc[0]:
        cyc.append(nxt[cyc[-1]])
    return cyc


def _assert_map_matches_oracle(m):
    incidence = _edge_faces_oracle(m.faces)
    edges = sorted(incidence)
    assert np.array_equal(m.edges, np.array(edges, int).reshape(-1, 2))
    assert m.edges.dtype == np.int64
    assert dict(zip(map(tuple, m.edges.tolist()), m.edge_face_count.tolist())) == \
        {e: len(fs) for e, fs in incidence.items()}
    boundary = [e for e in edges if len(incidence[e]) == 1]
    assert m.boundary_edges == boundary
    assert np.array_equal(m.boundary_walk, _boundary_walk_oracle(m, boundary))
    # bit for bit, not approximately
    assert np.array_equal(m.face_areas(), np.array([signed_area(m.positions[f]) for f in m.faces]))


def _assert_triangulation_matches_oracle(tri):
    assert [tuple(e) for e in tri.edges.tolist()] == sorted(_edge_faces_oracle(tri.faces))
    assert tri.boundary_cycle == _boundary_cycle_oracle(tri)


@given(kind=st.sampled_from(["grid", "perturbed", "packed"]), seed=st.integers(0, 10_000),
       size=st.integers(3, 40))
@settings(max_examples=30, deadline=None)
def test_face_side_table_matches_oracle(kind, seed, size):
    if kind == "packed":
        tri = odmap.random_delaunay_triangulation(size + 10, seed=seed)
        _assert_triangulation_matches_oracle(tri)
        m = odmap.orthodiagonal_from_packing(tri, odmap.pack_in_disk(tri, tol=1e-7))
    else:
        m = odmap.rotated_grid("disk" if seed % 2 else "square", size)
        if kind == "perturbed":
            m = odmap.perturbed(m, 0.2, seed=seed)
    _assert_map_matches_oracle(m)


@pytest.mark.parametrize("rows", [4, 9, 16])
def test_triangular_disk_table_matches_oracle(rows):
    _assert_triangulation_matches_oracle(odmap.triangular_disk_triangulation(rows))


def test_face_sides_of_mixed_orientation_quads():
    faces = np.array([[0, 1, 2, 3], [2, 1, 4, 5]])
    edges, side_edge = face_sides(faces)
    assert edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 4], [2, 3], [2, 5], [4, 5]]
    assert side_edge.tolist() == [[0, 2, 4, 1], [2, 3, 6, 5]]
    assert edges[side_edge].shape == (2, 4, 2)


def test_malformed_triangulations_name_the_first_bad_edge():
    with pytest.raises(StructuralError, match=r"directed edge \(0, 1\) used twice"):
        Triangulation(5, np.array([[0, 1, 2], [2, 3, 4], [0, 1, 3]])).validate()
    with pytest.raises(StructuralError, match=r"edge \(0, 1\) borders 3 faces"):
        Triangulation(5, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])).validate()


def test_offending_edges_in_face_order(diamond):
    faces = np.vstack([diamond.faces, diamond.faces[2:3], diamond.faces[2:3]])
    report = odmap.validate(odmap.OrthodiagonalMap(diamond.positions, diamond.primal_mask, faces))
    expected = [e for e, fs in _edge_faces_oracle(faces).items() if len(fs) > 2]
    assert len(expected) == 4
    assert report.offending_edges == expected
    assert report.checks["edges/at_most_two_faces"][1] == f"edges {expected}"
