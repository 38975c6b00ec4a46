import warnings

import numpy as np
import pytest

import odmap
from odmap.errors import GeometryError, RhoPathError
from odmap.flows import argument_field, argument_flow, equicontinuity_probe, random_path_flow
from odmap.network import energy, strength

from conftest import central_primal_vertex


def left_right_cones(omap):
    pv = omap.primal_vertices
    pos = omap.positions[pv]
    S = [int(v) for v, p in zip(pv, pos) if p[0] <= -abs(p[1])]
    T = [int(v) for v, p in zip(pv, pos) if p[0] >= abs(p[1]) and p[0] > 0]
    return S, T


# ---------------------------------------------------------------------------
# argument flow


def test_diamond_argument_flow(diamond):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = argument_flow(diamond, 0, 0.5, relax_radius_hypothesis=True)
    assert np.allclose(np.abs(rep.flow.values), 0.25, atol=1e-12)
    assert rep.strength == pytest.approx(1.0, abs=1e-12)
    assert rep.energy == pytest.approx(0.25, abs=1e-12)


def test_argument_flow_requires_interior_disk(grid32_centered):
    x = central_primal_vertex(grid32_centered)
    with pytest.raises(GeometryError, match="boundary"):
        argument_flow(grid32_centered, x, 0.49)


def test_argument_flow_radius_hypothesis(grid32_centered):
    x = central_primal_vertex(grid32_centered)
    eps = grid32_centered.mesh_size()
    with pytest.raises(GeometryError, match="3"):
        argument_flow(grid32_centered, x, 2 * eps)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        argument_flow(grid32_centered, x, 2 * eps, relax_radius_hypothesis=True)
    assert any("relaxed" in str(w.message) for w in rec)


def test_argument_flow_grid(grid32_centered):
    x = central_primal_vertex(grid32_centered)
    rep = argument_flow(grid32_centered, x, 4 * grid32_centered.mesh_size())
    assert rep.strength == pytest.approx(1.0, abs=1e-10)
    assert rep.meta["max_divergence_off_A"] <= 1e-10
    # edges inside A carry nothing
    net = rep.flow.network
    A = set(rep.meta["A"])
    for e in range(net.n_edges):
        if int(net.tails_labels[e]) in A and int(net.heads_labels[e]) in A:
            assert rep.flow.values[e] == 0.0


def test_argument_field_winding_divergence(grid32_centered):
    x = central_primal_vertex(grid32_centered)
    raw = argument_field(grid32_centered, x)
    div = raw.divergence()
    net = raw.network
    interior, _ = grid32_centered.interior_vertices()
    for v in interior:
        expected = 2 * np.pi if int(v) == x else 0.0
        assert div[net.index_of(v)] == pytest.approx(expected, abs=1e-10)


def test_argument_flow_report_consistency(grid32_centered):
    x = central_primal_vertex(grid32_centered)
    rep = argument_flow(grid32_centered, x, 0.15)
    net = rep.flow.network
    bdry, _ = grid32_centered.boundary_vertices()
    A = rep.meta["A"]
    sink = [int(v) for v in bdry if int(v) not in set(A)]
    assert strength(net, rep.flow, A, sink) == pytest.approx(rep.strength, abs=1e-12)
    assert energy(net, rep.flow) == pytest.approx(rep.energy, rel=1e-12)
    assert rep.ratio == pytest.approx(rep.energy / rep.bound_shape, rel=1e-12)


def test_argument_flow_energy_stable_across_refinement():
    # E(theta) / log(diam/r) within a factor 2 of the coarsest level
    ratios = []
    for n in (16, 32, 64):
        g = odmap.rotated_grid("square", n)
        g = odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces)
        x = central_primal_vertex(g)
        rep = argument_flow(g, x, 0.3)
        ratios.append(rep.ratio)
    for r in ratios[1:]:
        assert ratios[0] / 2 <= r <= ratios[0] * 2


def _argument_field_loop(omap, x):
    """Reference: the per-face argument increment, one face at a time."""
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def darg(a, b):
        return np.arctan2(cross(a, b), a @ b)

    pos = omap.positions
    out = []
    for quad in pos[omap.faces]:
        turns = [cross(quad[k] - quad[k - 1], quad[(k + 1) % 4] - quad[k]) < 0
                 for k in range(4)]
        rel = quad - pos[x]
        if any(turns) and turns.index(True) in (0, 2):
            mid = 0.5 * (rel[0] + rel[2])
            out.append(darg(rel[1], mid) + darg(mid, rel[3]))
        else:
            out.append(darg(rel[1], rel[3]))
    return np.array(out)


def test_argument_field_matches_face_loop(concave_fan):
    grid = odmap.perturbed(odmap.rotated_grid("disk", 16), 0.3, seed=3)
    for m, centers in ((concave_fan, [0]), (grid, grid.primal_vertices[::9])):
        for x in centers:
            np.testing.assert_allclose(argument_field(m, int(x)).values,
                                       _argument_field_loop(m, int(x)), rtol=0, atol=1e-14)


def test_winding_identity_with_concave_face(concave_fan):
    m = concave_fan
    report = odmap.validate(m, tol=1e-12)
    assert report.passed
    # the dart face is reflex at the center vertex (a primal corner)
    from odmap.flows import _face_corner_reflex

    assert _face_corner_reflex(m.positions[m.faces[0]]) == 0
    # shoelace area still equals half the diagonal product on the dart
    dp, dd = m.diagonal_lengths()
    assert np.allclose(m.face_areas(), 0.5 * dp * dd, atol=1e-14)
    # the straight chord and the bent dual edge wind differently about the
    # center: their angular increments differ by a full turn
    from odmap.flows import _delta_arg

    quad = m.positions[m.faces[0]]
    chord = _delta_arg(quad[1], quad[3])
    mid = 0.5 * (quad[0] + quad[2])
    bent = _delta_arg(quad[1], mid) + _delta_arg(mid, quad[3])
    assert abs(bent - chord) == pytest.approx(2 * np.pi, abs=1e-12)
    # with the bent branch the divergence at the center is exactly 2 pi
    raw = argument_field(m, 0)
    div = raw.divergence()
    net = raw.network
    assert div[net.index_of(0)] == pytest.approx(2 * np.pi, abs=1e-12)
    # martingale holds unconditionally
    from odmap.core_map import martingale_residuals

    assert martingale_residuals(m).max() <= 1e-12


# ---------------------------------------------------------------------------
# rho-edges


def test_rho_edges_diamond_empty(diamond):
    assert len(odmap.rho_edges(diamond, (0, 0), 1.2).edge_indices) == 0


def test_rho_edges_straddle(diamond):
    # one dual endpoint pulled inside the circle, the other left outside
    pos = diamond.positions.copy()
    pos[5] = pos[5] / np.sqrt(2) * 1.4  # move dual (1,1) to radius 1.4
    m = odmap.OrthodiagonalMap(pos, diamond.primal_mask, diamond.faces)
    members = odmap.rho_edges(m, (0, 0), 1.41).edge_indices
    assert set(members.tolist()) == {0, 1}  # both faces using that dual vertex


def test_rho_edges_count_matches_crossing_oracle(grid32_centered):
    rho = 0.27
    members = odmap.rho_edges(grid32_centered, (0, 0), rho).edge_indices
    # oracle: count dual lattice edges crossing the circle directly
    pos = grid32_centered.positions
    f = grid32_centered.faces
    count = 0
    for i in range(grid32_centered.n_faces):
        r1 = np.hypot(*pos[f[i, 1]])
        r2 = np.hypot(*pos[f[i, 3]])
        if min(r1, r2) < rho <= max(r1, r2):
            count += 1
    assert len(members) == count > 0


def test_augmented_dual_endpoint_norms_match_pair_loop(grid32_centered):
    from odmap.core_map import AugmentedDuals
    from odmap.flows import _dual_endpoint_norms

    aug = odmap.augmented_duals(grid32_centered)
    for center in [(0.0, 0.0), (0.3, -0.2), (2.0, 1.0)]:
        norms = np.hypot(*(grid32_centered.positions - center).T)
        ends = [[np.inf if w == AugmentedDuals.APEX else norms[w] for w in pair]
                for pair in aug.dual_pairs]
        lo, hi = _dual_endpoint_norms(aug, center)
        assert lo.tolist() == [min(e) for e in ends] and hi.tolist() == [max(e) for e in ends]
        assert np.isinf(hi).sum() == len(aug.dual_pairs) - aug.n_core_edges > 0


def test_rho_edges_strict_convention(diamond):
    # |w| < rho <= |w'|: at rho exactly sqrt(2), duals at radius sqrt(2) are
    # allowed on the outer side but not the inner side
    r = np.sqrt(2)
    assert len(odmap.rho_edges(diamond, (0, 0), r).edge_indices) == 0
    aug = odmap.augmented_duals(diamond)
    members = odmap.rho_edges(aug, (0, 0), r)
    assert len(members.edge_indices) == 0  # apex edges need |w_j| < rho strictly
    members2 = odmap.rho_edges(aug, (0, 0), r + 1e-9)
    assert len(members2.edge_indices) == 4  # now each boundary dual straddles


# ---------------------------------------------------------------------------
# rho paths


def test_rho_path_grid(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    res = odmap.rho_path(aug, 0.2, S, T)
    verts = res["vertices"]
    edges = res["edges"]
    assert len(verts) == len(edges) + 1
    assert verts[0] in set(S) and verts[-1] in set(T)
    assert len(set(verts)) == len(verts)  # simple
    members = set(odmap.rho_edges(aug, (0, 0), 0.2).edge_indices.tolist())
    assert set(edges) <= members
    # consecutive edges share a vertex and none is augmented
    assert all(e < aug.n_core_edges for e in edges)
    net = aug.primal
    for v, e in zip(verts[:-1], edges):
        assert v in (int(net.tails_labels[e]), int(net.heads_labels[e]))


def test_rho_path_matches_bfs_oracle(grid32_centered):
    # independent oracle: BFS over all rho-edges (not just the cut) must agree
    # on reachability from S to T
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    for rho in (0.12, 0.2, 0.31):
        res = odmap.rho_path(aug, rho, S, T)
        members = odmap.rho_edges(aug, (0, 0), rho).edge_indices
        adj = {}
        net = aug.primal
        for e in members:
            if e >= aug.n_core_edges:
                continue
            t, h = int(net.tails_labels[e]), int(net.heads_labels[e])
            adj.setdefault(t, []).append(h)
            adj.setdefault(h, []).append(t)
        seen = set(v for v in S if v in adj)
        stack = list(seen)
        while stack:
            v = stack.pop()
            for u in adj.get(v, []):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen & set(T), "oracle disagrees: no rho-edge path at all"
        assert res["vertices"][-1] in seen


@pytest.mark.parametrize("rho, S_size, vertices, edges", [
    (0.12, 12, [203, 236, 269, 302, 335], [192, 223, 254, 285]),
    (0.2, 30, [203, 202, 235, 234, 267, 300, 301, 334, 335],
     [176, 191, 206, 221, 252, 268, 284, 300]),
    (0.31, 78, [135, 168, 167, 200, 233, 266, 299, 332, 365, 366, 399],
     [128, 143, 158, 189, 220, 251, 282, 313, 329, 345]),
])
def test_rho_path_pinned(grid32_centered, rho, S_size, vertices, edges):
    # recorded from the hand-written traversals the csgraph version replaced
    S, T = left_right_cones(grid32_centered)
    res = odmap.rho_path(odmap.augmented_duals(grid32_centered), rho, S, T)
    assert (res["S_size"], res["vertices"], res["edges"]) == (S_size, vertices, edges)


def test_rho_path_degenerate_radius(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    with pytest.raises(RhoPathError):
        odmap.rho_path(aug, 1e-4, S, T)  # no dual vertex that close to 0


def test_rho_path_every_part_of_A_and_B_must_reach_the_boundary(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    # an interior vertex between the cones, with no path inside either
    lone = central_primal_vertex(grid32_centered, (0.0, 0.3))
    assert not grid32_centered.boundary_vertex_mask[lone] and lone not in S + T
    with pytest.raises(RhoPathError, match="inside A$"):
        odmap.rho_path(aug, 0.2, S + [lone], T)
    with pytest.raises(RhoPathError, match="inside B'$"):
        odmap.rho_path(aug, 0.2, S, T + [lone])


def test_rho_path_disjointness_checked(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    with pytest.raises(RhoPathError):
        odmap.rho_path(aug, 0.2, S, S)


def test_rho_path_length_geometry(grid32_centered):
    # path length comparable to the half-circumference over the edge length
    S, T = left_right_cones(grid32_centered)
    aug = odmap.augmented_duals(grid32_centered)
    rho = 0.25
    res = odmap.rho_path(aug, rho, S, T)
    step = 2.0 / 32  # primal lattice spacing
    expected = np.pi * rho / step
    assert expected / 3 <= len(res["edges"]) <= 3 * expected


# ---------------------------------------------------------------------------
# random path flow


def test_random_path_flow_grid(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    rep = random_path_flow(grid32_centered, S, T, 0.1, 0.3, m=24)
    assert rep.strength == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rep.flow.values).max() <= 1.0 + 1e-12
    div = rep.flow.divergence()
    net = rep.flow.network
    off = [k for k, lab in enumerate(net.labels)
           if int(lab) not in set(S) | set(T)]
    assert np.abs(div[off]).max() <= 1e-9
    # every quadrature path consists of rho-edges for its own rho
    aug = odmap.augmented_duals(grid32_centered)
    for res in rep.meta["paths"]:
        members = set(odmap.rho_edges(aug, (0, 0), res["rho"]).edge_indices.tolist())
        assert set(res["edges"]) <= members


def test_random_path_flow_energy_stable():
    base = None
    for n in (16, 32, 64):
        g = odmap.rotated_grid("square", n)
        g = odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces)
        S, T = left_right_cones(g)
        rep = random_path_flow(g, S, T, 0.1, 0.3, m=24)
        if base is None:
            base = rep.ratio
        assert base / 2 <= rep.ratio <= base * 2


def test_random_path_flow_single_path_average():
    # with r1, r2 inside a gap of the dual radii, every quadrature point sees
    # the same cut, hence the same path: the average is that indicator flow
    g = odmap.rotated_grid("disk", 16)
    S, T = left_right_cones(g)
    eps = g.mesh_size()
    r1, r2 = 1.2 / 16, 2.2 / 16  # between dual radii 1/16 and sqrt(5)/16
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep1 = random_path_flow(g, S, T, r1, r2, m=1, relax_radius_hypothesis=True)
        rep128 = random_path_flow(g, S, T, r1, r2, m=128, relax_radius_hypothesis=True)
    assert np.allclose(rep1.flow.values, rep128.flow.values, atol=1e-12)
    assert set(np.round(np.abs(rep1.flow.values), 12).tolist()) <= {0.0, 1.0}
    assert rep1.strength == pytest.approx(1.0, abs=1e-12)


def test_random_path_flow_radius_preconditions(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    with pytest.raises(GeometryError):
        random_path_flow(grid32_centered, S, T, 0.01, 0.3)
    with pytest.raises(GeometryError):
        random_path_flow(grid32_centered, S, T, 0.2, 0.3)


def _centred_perturbed_square():
    g = odmap.perturbed(odmap.rotated_grid("square", 16), 0.3, seed=2)
    return odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces)


@pytest.mark.parametrize("seed", [None, 5])
@pytest.mark.parametrize("family, r1, r2", [
    ("disk", 0.1, 0.3), ("perturbed", 0.15, 0.4), ("packed", 0.2, 0.6)])
def test_random_path_flow_paths_are_rho_paths(packed500, family, r1, r2, seed):
    # the flow's one S/T setup per call gives, radius by radius, the paths of
    # independent rho_path calls
    g = {"disk": lambda: odmap.rotated_grid("disk", 24), "perturbed": _centred_perturbed_square,
         "packed": lambda: packed500[2]}[family]()
    S, T = left_right_cones(g)
    rep = random_path_flow(g, S, T, r1, r2, m=12, seed=seed)
    aug = odmap.augmented_duals(g)
    assert rep.meta["paths"] == [odmap.rho_path(aug, rho, S, T) for rho in rep.meta["rhos"]]


def test_random_path_flow_checks_each_part_reaches_the_boundary_once(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    lone = central_primal_vertex(grid32_centered, (0.0, 0.3))
    with pytest.raises(RhoPathError, match="inside A$"):
        random_path_flow(grid32_centered, S + [lone], T, 0.1, 0.3)
    with pytest.raises(RhoPathError, match="inside B'$"):
        random_path_flow(grid32_centered, S, T + [lone], 0.1, 0.3)


def test_random_path_flow_sampled_mode(grid32_centered):
    S, T = left_right_cones(grid32_centered)
    rep = random_path_flow(grid32_centered, S, T, 0.1, 0.3, m=16, seed=11)
    assert rep.strength == pytest.approx(1.0, abs=1e-12)
    assert np.abs(rep.flow.values).max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# equicontinuity probe


def test_equicontinuity_coordinate(grid32_centered):
    h_vals = grid32_centered.positions[grid32_centered.primal_vertices, 0]
    net = grid32_centered.primal_network()
    h = odmap.VertexFunction(net, h_vals)
    pv = grid32_centered.primal_vertices
    pos = grid32_centered.positions
    x = central_primal_vertex(grid32_centered)
    y = central_primal_vertex(grid32_centered, target=(0.2, 0.0))
    lhs, shape, beta = equicontinuity_probe(grid32_centered, h, x, y, 0.45)
    assert lhs == pytest.approx(abs(pos[x, 0] - pos[y, 0]), abs=1e-12)


def test_equicontinuity_constant(grid32_centered):
    net = grid32_centered.primal_network()
    h = odmap.VertexFunction(net, np.full(net.n_vertices, 3.0))
    x = central_primal_vertex(grid32_centered)
    y = central_primal_vertex(grid32_centered, target=(0.1, 0.1))
    lhs, shape, beta = equicontinuity_probe(grid32_centered, h, x, y, 0.45)
    assert lhs == 0.0
    assert shape == 0.0
    assert beta == 0.0


def test_equicontinuity_requires_large_R(grid32_centered):
    net = grid32_centered.primal_network()
    h = odmap.VertexFunction(net, np.zeros(net.n_vertices))
    x = central_primal_vertex(grid32_centered)
    y = central_primal_vertex(grid32_centered, target=(0.3, 0.0))
    with pytest.raises(GeometryError):
        equicontinuity_probe(grid32_centered, h, x, y, 0.05)


def _beta_vertex_loop(omap, h, x, y, R):
    """equicontinuity_probe's beta one boundary vertex at a time (the oracle)."""
    pos = omap.positions
    center = 0.5 * (pos[x] + pos[y])
    vals = [h.at(int(v)) for v in omap.boundary_vertices()[0] if np.hypot(*(pos[v] - center)) <= R]
    return float(max(vals) - min(vals)) if vals else 0.0


@pytest.mark.parametrize("R", [0.35, 0.45, 0.8, 3.0])
def test_equicontinuity_beta_matches_vertex_loop(grid32_centered, R):
    net = grid32_centered.primal_network()
    h = odmap.VertexFunction(net, np.sin(3.0 * grid32_centered.positions[net.labels, 0]))
    x = central_primal_vertex(grid32_centered)
    y = central_primal_vertex(grid32_centered, target=(0.2, 0.0))
    beta = equicontinuity_probe(grid32_centered, h, x, y, R)[2]
    assert beta == _beta_vertex_loop(grid32_centered, h, x, y, R)
    assert (beta == 0.0) == (R == 0.35)  # no boundary vertex within 0.35


def test_equicontinuity_on_packed_maps():
    # the smoothness estimate probed on packed disk maps: the empirical
    # constant lhs / (shape + beta) stays bounded across a refinement
    from odmap.dirichlet import get_test_function, solve_dirichlet

    tf = get_test_function("x2_minus_y2")
    worst = []
    for rows in (8, 16):
        tri = odmap.triangular_disk_triangulation(rows)
        p = odmap.pack_in_disk(tri, tol=1e-7)
        m = odmap.orthodiagonal_from_packing(tri, p)
        h = solve_dirichlet(m, tf)
        eps = m.mesh_size()
        ratios = []
        for target in ((0.0, 0.0), (0.2, 0.1), (-0.15, 0.2)):
            x = central_primal_vertex(m, target=target)
            y = central_primal_vertex(
                m, target=(target[0] + 2.5 * eps, target[1]))
            if x == y:
                continue
            r_xy = 0.5 * np.hypot(*(m.positions[x] - m.positions[y]))
            R = 2 * r_xy + 4 * eps
            lhs, shape, beta = equicontinuity_probe(m, h, x, y, R)
            ratios.append(lhs / (shape + beta + 1e-30))
        worst.append(max(ratios))
    assert all(np.isfinite(w) for w in worst)
    assert max(worst) <= 10 * min(worst) + 1.0


def test_equicontinuity_ratio_bounded_over_refinement():
    # lhs / (shape + beta) stays bounded across levels for a true solution
    from odmap.dirichlet import get_test_function, solve_dirichlet

    tf = get_test_function("exp_x_cos_y")
    vals = []
    for n in (16, 32):
        g = odmap.rotated_grid("square", n)
        g = odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces)
        h = solve_dirichlet(g, tf)
        x = central_primal_vertex(g)
        y = central_primal_vertex(g, target=(2.5 / n, 0.0))
        lhs, shape, beta = equicontinuity_probe(g, h, x, y, 0.4)
        vals.append(lhs / (shape + beta + 1e-30))
    assert all(np.isfinite(v) for v in vals)
    assert max(vals) <= 10 * (min(vals) + 1e-12) + 1.0
