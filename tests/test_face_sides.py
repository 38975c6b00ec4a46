"""The directed-side table against per-side dict/set derivations."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmap
from odmap.core_map import side_table
from odmap.errors import StructuralError
from odmap.generators import SHAPES
from odmap.geometry import signed_area
from odmap.packing import Triangulation

from conftest import closed, coned
from test_packing import hub_triangulation, polygon_triangulation, zigzag_strip

# -- reference derivations, one face side at a time ---------------------------


def _edge_faces_oracle(faces):
    """{(a, b) with a < b: [face of each side on that edge]} in side order."""
    out: dict = {}
    for i, f in enumerate(faces):
        for a, b in zip(f, np.roll(f, -1)):
            out.setdefault((min(int(a), int(b)), max(int(a), int(b))), []).append(i)
    return out


def _assert_table_matches_oracle(faces, s):
    """Every column of the side table against a walk over the sides, one
    dict entry per side and per edge."""
    sides = [(i, j) for i, f in enumerate(faces) for j in range(len(f))]
    number = {side: k for k, side in enumerate(sides)}
    on_edge: dict = {}
    for k, (i, j) in enumerate(sides):
        a, b = int(faces[i][j]), int(faces[i][(j + 1) % len(faces[i])])
        on_edge.setdefault((min(a, b), max(a, b)), []).append(k)
    edges = sorted(on_edge)
    edge_of = {k: e for e, ks in enumerate(on_edge[ab] for ab in edges) for k in ks}
    twin = {k: (ks[1 - ks.index(k)] if len(ks) == 2 else -1) for ks in on_edge.values() for k in ks}
    want = {
        "tail": [int(faces[i][j]) for i, j in sides],
        "head": [int(faces[i][(j + 1) % len(faces[i])]) for i, j in sides],
        "face": [i for i, _ in sides],
        "nxt": [number[(i, (j + 1) % len(faces[i]))] for i, j in sides],
        "edge": [edge_of[k] for k in range(len(sides))],
        "twin": [twin[k] for k in range(len(sides))],
        "count": [len(on_edge[e]) for e in edges],
        "first": [on_edge[e][0] for e in edges],
    }
    for name, column in want.items():
        assert getattr(s, name).tolist() == column, name
    assert s.edges.dtype == np.int64 and s.edges.tolist() == [list(e) for e in edges]


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
    _assert_table_matches_oracle(m.faces, m._sides)
    incidence = _edge_faces_oracle(m.faces)
    edges = sorted(incidence)
    assert np.array_equal(m.edges, np.array(edges, int).reshape(-1, 2))
    assert m.edges.dtype == np.int64
    assert dict(zip(map(tuple, m.edges.tolist()), m.edge_face_count.tolist())) == \
        {e: len(fs) for e, fs in incidence.items()}
    boundary = [e for e in edges if len(incidence[e]) == 1]
    assert [tuple(e) for e in m.edges[m.edge_face_count == 1].tolist()] == boundary
    assert np.array_equal(m.boundary_walk, _boundary_walk_oracle(m, boundary))
    # bit for bit, not approximately
    assert np.array_equal(m.face_areas(), np.array([signed_area(m.positions[f]) for f in m.faces]))


def _assert_triangulation_matches_oracle(tri):
    _assert_table_matches_oracle(tri.faces, tri._sides)
    assert [tuple(e) for e in tri.edges.tolist()] == sorted(_edge_faces_oracle(tri.faces))
    cyc = _boundary_cycle_oracle(tri)
    assert tri.boundary_cycle == cyc
    # the lone side into each boundary vertex, from the next one CCW
    s, k = tri._sides, tri._boundary_sides
    assert (s.twin[k] < 0).all() and s.head[k].tolist() == cyc and s.tail[k].tolist() == cyc[1:] + cyc[:1]


@given(kind=st.sampled_from(["grid", "perturbed", "packed", "coned", "closed", *SHAPES]),
       seed=st.integers(0, 10_000), size=st.integers(3, 40))
@settings(max_examples=40, deadline=None)
def test_face_side_table_matches_oracle(kind, seed, size):
    if kind in SHAPES or kind in ("coned", "closed"):
        # ragged face lists of 3-connected maps
        h = SHAPES[kind]() if kind in SHAPES else \
            (coned if kind == "coned" else closed)(odmap.random_delaunay_triangulation(size + 4, seed))
        _assert_table_matches_oracle(h.faces, h._sides)
        assert np.array_equal(h.edges, h._sides.edges)
        return
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


@given(kind=st.sampled_from(["polygon", "zigzag", "hub"]), seed=st.integers(0, 10_000),
       size=st.integers(3, 40))
@settings(max_examples=30, deadline=None)
def test_triangulation_families_match_oracle(kind, seed, size):
    tri = {"polygon": lambda: polygon_triangulation(size, seed), "zigzag": lambda: zigzag_strip(size),
           "hub": lambda: hub_triangulation(size, 2 + seed % 5)}[kind]()
    _assert_triangulation_matches_oracle(tri)


def test_face_sides_of_mixed_orientation_quads():
    faces = np.array([[0, 1, 2, 3], [2, 1, 4, 5]])
    s = side_table(faces)
    assert s.edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 4], [2, 3], [2, 5], [4, 5]]
    assert s.edge.reshape(2, 4).tolist() == [[0, 2, 4, 1], [2, 3, 6, 5]]
    assert s.twin.tolist() == [-1, 4, -1, -1, 1, -1, -1, -1]
    assert s.first_repeat() == -1
    _assert_table_matches_oracle(faces, s)
    # the same faces as a ragged list give the same table
    assert all(np.array_equal(u, v) for u, v in zip(side_table(faces.tolist()), s))
    # three sides on edge (0, 1), so no twins there; the later 0 -> 1 repeats the first
    ragged = [[0, 1, 2], [3, 0, 1], [1, 0, 4]]
    _assert_table_matches_oracle(ragged, side_table(ragged))
    assert side_table(ragged).first_repeat() == 4


def test_malformed_triangulations_name_the_first_bad_edge():
    with pytest.raises(StructuralError, match=r"directed edge \(0, 1\) used twice"):
        Triangulation(5, np.array([[0, 1, 2], [2, 3, 4], [0, 1, 3]])).validate()
    with pytest.raises(StructuralError, match=r"edge \(0, 1\) borders 3 faces"):
        Triangulation(5, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])).validate()
    # the boundary checks, in the words a map's validation reports them
    octahedron = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]]
    with pytest.raises(StructuralError, match=r"^map has no boundary edges$"):
        Triangulation(6, np.array(octahedron)).validate()
    with pytest.raises(StructuralError, match=r"^boundary is not simple at vertex 0$"):
        Triangulation(5, np.array([[0, 1, 2], [0, 3, 4]])).validate()  # pinched at 0
    annulus = [[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4], [2, 0, 3], [2, 3, 5]]
    with pytest.raises(StructuralError, match=r"^boundary edges form more than one cycle$"):
        Triangulation(6, np.array(annulus)).validate()
    # two quads pinched at 0
    bowtie = odmap.OrthodiagonalMap(np.random.default_rng(0).random((7, 2)), [1, 0, 1, 0, 0, 1, 0],
                                    [[0, 1, 2, 3], [0, 4, 5, 6]])
    assert odmap.validate(bowtie).checks["boundary/single_simple_walk"] == \
        (False, "boundary is not simple at vertex 0")


def test_offending_edges_in_face_order(diamond):
    faces = np.vstack([diamond.faces, diamond.faces[2:3], diamond.faces[2:3]])
    report = odmap.validate(odmap.OrthodiagonalMap(diamond.positions, diamond.primal_mask, faces))
    expected = [e for e, fs in _edge_faces_oracle(faces).items() if len(fs) > 2]
    assert len(expected) == 4
    assert report.offending_edges == expected
    assert report.checks["edges/at_most_two_faces"][1] == f"edges {expected}"
