import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmap
from odmap.dirichlet import exit_measure_vs_arcs
from odmap.network import (
    DirichletProblem,
    EdgeField,
    bfs_spanning_tree,
    cycle_law_residuals,
    dirichlet_thomson_check,
    discrete_gradient,
    energy,
    energy_of_function,
    gap,
    harmonic_extension,
    harmonic_residuals,
    inner_r,
    project_to_current,
    random_walk_exit_measure,
    sandwich_check,
    star_cycle_decomposition,
    strength,
    _LEAP_CAP,
    _AliasTable,
    _leap_table,
    _row_cumsum,
    _stopped_chain,
)

from conftest import random_network

DATA = Path(__file__).parent / "data"


def path_network(conductances):
    n = len(conductances) + 1
    return odmap.Network(np.arange(n), np.arange(n - 1), np.arange(1, n),
                         np.asarray(conductances, float))


def grid_network(n):
    """(n+1) x (n+1) unit-conductance grid graph with labels row*(n+1)+col."""
    tails, heads = [], []
    for i in range(n + 1):
        for j in range(n + 1):
            v = i * (n + 1) + j
            if j < n:
                tails.append(v)
                heads.append(v + 1)
            if i < n:
                tails.append(v)
                heads.append(v + n + 1)
    m = len(tails)
    return odmap.Network(np.arange((n + 1) ** 2), tails, heads, np.ones(m))


def grid_boundary_labels(n):
    out = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i in (0, n) or j in (0, n):
                out.append(i * (n + 1) + j)
    return out


# ---------------------------------------------------------------------------
# gradient and energy


def test_gradient_path():
    net = path_network([1.0, 1.0])
    g = discrete_gradient(net, np.array([0.0, 0.75, 1.0]))
    assert np.allclose(g.values, [0.75, 0.25])


def test_gradient_constant_is_zero():
    net = path_network([2.0, 5.0, 0.3])
    g = discrete_gradient(net, np.full(4, 3.7))
    assert np.allclose(g.values, 0.0)


def test_gradient_coordinate_on_diamond(diamond):
    net = diamond.primal_network()
    f = diamond.positions[net.labels, 0]
    g = discrete_gradient(net, f)
    vals = sorted(np.round(g.values, 12))
    assert vals == [-2.0, 0.0, 0.0, 2.0]


def test_energy_single_edge():
    net = odmap.Network([0, 1], [0], [1], [2.0])
    assert energy_of_function(net, np.array([0.0, 3.0])) == pytest.approx(18.0)


def test_energy_path_series():
    net = path_network([1.0, 3.0])
    h = harmonic_extension(DirichletProblem(net, {0: 0.0, 2: 1.0}))
    assert energy_of_function(net, h) == pytest.approx(0.75)


def test_energy_triangle_inequality_spot():
    rng = np.random.default_rng(0)
    net = random_network(rng)
    for _ in range(20):
        th = net.field(rng.standard_normal(net.n_edges))
        ph = net.field(rng.standard_normal(net.n_edges))
        assert energy(net, th + ph) <= 2 * energy(net, th) + 2 * energy(net, ph) + 1e-12


@given(s=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_energy_scaling(s):
    rng = np.random.default_rng(7)
    net = random_network(rng)
    th = net.field(rng.standard_normal(net.n_edges))
    assert energy(net, s * th) == pytest.approx(s * s * energy(net, th), rel=1e-12, abs=1e-12)


@given(c=st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3),
       g0=st.floats(-5, 5), g2=st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_strength_gap_inequality_hypothesis(c, g0, g2):
    # a triangle network with arbitrary weights and boundary data: the
    # strength-gap product never beats the energy product
    import warnings

    net = odmap.Network([0, 1, 2], [0, 1, 2], [1, 2, 0], np.array(c))
    prob = DirichletProblem(net, {0: g0, 2: g2})
    h = harmonic_extension(prob)
    theta = discrete_gradient(net, h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # negative-gap cases are flagged vacuous
        lhs, rhs = dirichlet_thomson_check(net, theta, h.values, [0], [2])
    assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


@given(vals=st.lists(st.floats(-100, 100), min_size=2, max_size=2))
@settings(max_examples=30, deadline=None)
def test_field_antisymmetry_semantics(vals):
    net = path_network([2.0])
    f = np.array(vals)
    th = discrete_gradient(net, f)
    # reversing the function reverses the field; energy is orientation-free
    rev = discrete_gradient(net, f[::-1].copy())
    assert rev.values[0] == pytest.approx(-th.values[0], rel=1e-12, abs=1e-12)
    assert energy(net, rev) == pytest.approx(energy(net, th), rel=1e-12, abs=1e-12)


def test_inner_product_symmetric():
    rng = np.random.default_rng(3)
    net = random_network(rng)
    th = net.field(rng.standard_normal(net.n_edges))
    ph = net.field(rng.standard_normal(net.n_edges))
    assert inner_r(th, ph) == pytest.approx(inner_r(ph, th), rel=1e-13)


# ---------------------------------------------------------------------------
# harmonic extension


def test_harmonic_extension_path_examples():
    net = path_network([1.0, 1.0])
    h = harmonic_extension(DirichletProblem(net, {0: 0.0, 2: 1.0}))
    assert h.at(1) == pytest.approx(0.5)
    net = path_network([1.0, 3.0])
    h = harmonic_extension(DirichletProblem(net, {0: 0.0, 2: 1.0}))
    assert h.at(1) == pytest.approx(0.75)


def test_harmonic_extension_dense_oracle():
    net = grid_network(4)
    b = grid_boundary_labels(4)
    vals = {v: (v % 5) ** 2 - (v // 5) ** 2 for v in b}
    prob = DirichletProblem(net, {k: float(v) for k, v in vals.items()})
    h = harmonic_extension(prob)
    L = net.laplacian.toarray()
    I, B = prob.interior_idx, prob.boundary_idx
    x = np.linalg.solve(L[np.ix_(I, I)], -L[np.ix_(I, B)] @ prob.boundary_vals)
    assert np.abs(h.values[I] - x).max() <= 1e-10


def test_harmonic_extension_residuals_and_max_principle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_network(rng)
        b = sorted(rng.choice(net.n_vertices, size=max(2, net.n_vertices // 4),
                              replace=False).tolist())
        g = {int(v): float(rng.standard_normal()) for v in b}
        prob = DirichletProblem(net, g)
        h = harmonic_extension(prob)
        gmax = max(g.values())
        gmin = min(g.values())
        assert np.all(h.values <= gmax + 1e-10)
        assert np.all(h.values >= gmin - 1e-10)
        res = harmonic_residuals(prob, h)
        pi = net.pi[prob.interior_idx]
        ginf = max(abs(gmax), abs(gmin)) + 1e-30
        assert np.all(np.abs(res) <= 1e-9 * pi * ginf)


def test_harmonic_extension_uniqueness():
    rng = np.random.default_rng(4)
    net = random_network(rng)
    b = [0, net.n_vertices - 1]
    g = {0: 1.3, net.n_vertices - 1: -0.4}
    h1 = harmonic_extension(DirichletProblem(net, g))
    h2 = harmonic_extension(DirichletProblem(net, dict(reversed(list(g.items())))))
    assert np.abs(h1.values - h2.values).max() <= 1e-9 * 1.3


def test_empty_interior_returns_boundary():
    net = path_network([1.0])
    h = harmonic_extension(DirichletProblem(net, {0: 2.0, 1: 5.0}))
    assert np.allclose(h.values, [2.0, 5.0])


def test_disconnected_network_raises():
    net = odmap.Network([0, 1, 2, 3], [0, 2], [1, 3], [1.0, 1.0])
    with pytest.raises(odmap.DisconnectedNetworkError):
        harmonic_extension(DirichletProblem(net, {0: 0.0}))


# ---------------------------------------------------------------------------
# Kirchhoff laws


def test_gradient_satisfies_cycle_law():
    rng = np.random.default_rng(8)
    for _ in range(10):
        net = random_network(rng)
        f = rng.standard_normal(net.n_vertices)
        res = cycle_law_residuals(net, discrete_gradient(net, f))
        if len(res):
            assert np.abs(res).max() <= 1e-12 * (1 + np.abs(f).max())


def _cycle_law_residuals_loop(net, theta):
    """The per-vertex potential and per-edge residual loops that
    cycle_law_residuals replaces (the oracle)."""
    parent, parent_edge, parent_sign, order = bfs_spanning_tree(net)
    r = net.resistances
    psi = np.zeros(net.n_vertices)
    for v in order[1:]:
        psi[v] = psi[parent[v]] + parent_sign[v] * r[parent_edge[v]] * theta.values[parent_edge[v]]
    tree_edges = set(int(e) for e in parent_edge if e >= 0)
    out = []
    for e in range(net.n_edges):
        if e in tree_edges:
            continue
        t, h = net.tails[e], net.heads[e]
        out.append(r[e] * theta.values[e] - (psi[h] - psi[t]))
    return np.array(out)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cycle_law_residuals_match_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for net in (random_network(rng), grid_network(int(rng.integers(1, 12))),
                path_network(rng.random(int(rng.integers(1, 6))) + 0.5)):
        theta = net.field(rng.standard_normal(net.n_edges))
        got = cycle_law_residuals(net, theta)
        want = _cycle_law_residuals_loop(net, theta)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_node_law_residuals_characterize_flows():
    from odmap.network import node_law_residuals

    net = grid_network(3)
    b = grid_boundary_labels(3)
    prob = DirichletProblem(net, {v: float(v % 4) for v in b})
    h = harmonic_extension(prob)
    theta = discrete_gradient(net, h)
    interior = [int(net.labels[i]) for i in prob.interior_idx]
    res = node_law_residuals(net, theta, interior)
    assert np.abs(res).max() <= 1e-10
    # a generic gradient is not a flow at interior vertices
    rng = np.random.default_rng(0)
    bad = discrete_gradient(net, rng.standard_normal(net.n_vertices))
    assert np.abs(node_law_residuals(net, bad, interior)).max() > 1e-3


def test_star_inner_product_is_net_outflow():
    rng = np.random.default_rng(9)
    net = random_network(rng)
    th = net.field(rng.standard_normal(net.n_edges))
    for v in range(min(net.n_vertices, 6)):
        out = inner_r(th, net.star(v))
        assert out == pytest.approx(th.divergence()[net.index_of(v)], rel=1e-10, abs=1e-12)


def test_cycle_residual_triangle():
    net = odmap.Network([0, 1, 2], [0, 1, 2], [1, 2, 0], [1.0, 2.0, 4.0])
    th = net.field([0.3, -1.1, 0.7])
    res = cycle_law_residuals(net, th)
    assert len(res) == 1
    # direct r-weighted sum around the directed triangle
    direct = 1.0 * 0.3 + 0.5 * (-1.1) + 0.25 * 0.7
    assert res[0] == pytest.approx(direct, rel=1e-12) or res[0] == pytest.approx(-direct, rel=1e-12)


def test_star_derivative_lemma():
    # c df + sum_x f(x) star_x = 0
    rng = np.random.default_rng(12)
    for _ in range(5):
        net = random_network(rng)
        f = rng.standard_normal(net.n_vertices)
        total = discrete_gradient(net, f)
        for v in range(net.n_vertices):
            total = total + f[v] * net.star(v)
        assert np.abs(total.values).max() <= 1e-10 * (1 + np.abs(f).max())


def test_flow_inner_product_lemma():
    # (theta, c df)_r = sum_{x notin U} f(x) * net inflow at x
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_network(rng)
        b = sorted(rng.choice(net.n_vertices, size=max(2, net.n_vertices // 3),
                              replace=False).tolist())
        g = {int(v): float(rng.standard_normal()) for v in b}
        prob = DirichletProblem(net, g)
        h = harmonic_extension(prob)
        theta = discrete_gradient(net, h)  # flow on U
        f = rng.standard_normal(net.n_vertices)
        lhs = inner_r(theta, discrete_gradient(net, f))
        div = theta.divergence()
        rhs = sum(f[net.index_of(v)] * (-div[net.index_of(v)]) for v in b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# strength and gap


def test_strength_on_path_flow():
    net = path_network([1.0, 3.0])
    h = harmonic_extension(DirichletProblem(net, {0: 0.0, 2: 1.0}))
    th = discrete_gradient(net, h)
    assert strength(net, th, [0], [2]) == pytest.approx(0.75)
    assert strength(net, 4.0 * th, [0], [2]) == pytest.approx(3.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_strength_matches_edge_loop(seed):
    # reference: one pass over the edges, summing in edge order
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    theta = EdgeField(net, rng.standard_normal(net.n_edges))
    A, B = [0, 1], [net.n_vertices - 1]
    out_A = in_B = 0.0
    for t, h, v in zip(net.tails, net.heads, theta.values):
        out_A += v * ((t in A) - (h in A))
        in_B += v * ((h in B) - (t in B))
    tol = 4 * net.n_edges * np.finfo(float).eps * np.abs(theta.values).sum()
    assert strength(net, theta, A, B, check_tol=None) == pytest.approx(out_A, abs=tol)
    # the into-B formula on its own (theta is no flow off A u B)
    assert strength(net, -theta, B, A, check_tol=None) == pytest.approx(in_B, abs=tol)


def test_gap_on_grid():
    net = grid_network(3)
    f = np.array([v % 4 for v in range(16)], float)  # x coordinate
    left = [v for v in range(16) if v % 4 == 0]
    right = [v for v in range(16) if v % 4 == 3]
    assert gap(net, f, left, right) == pytest.approx(3.0)


def test_overlapping_sets_rejected():
    net = path_network([1.0, 1.0])
    with pytest.raises(odmap.StructuralError):
        gap(net, np.zeros(3), [0, 1], [1, 2])


# ---------------------------------------------------------------------------
# projection, sandwich, Dirichlet-Thomson


def test_projection_fixed_point():
    net = path_network([1.0, 3.0])
    prob = DirichletProblem(net, {0: 0.0, 2: 1.0})
    h = harmonic_extension(prob)
    out = project_to_current(prob, h)
    assert np.allclose(out.values, discrete_gradient(net, h).values, atol=1e-12)


def test_projection_x_squared_on_path():
    net = path_network([1.0, 1.0])
    f = np.array([0.0, 1.0, 4.0])  # x^2 at x = 0, 1, 2
    prob = DirichletProblem(net, {0: 0.0, 2: 4.0})
    out = project_to_current(prob, f)
    assert np.allclose(out.values, [2.0, 2.0], atol=1e-10)  # linear interpolation


def test_projection_decreases_energy_and_is_orthogonal():
    rng = np.random.default_rng(21)
    net = grid_network(3)
    b = grid_boundary_labels(3)
    f = rng.standard_normal(net.n_vertices)
    prob = DirichletProblem(net, {v: float(f[net.index_of(v)]) for v in b})
    out = project_to_current(prob, f)
    cdf = discrete_gradient(net, f)
    assert energy(net, out) <= energy_of_function(net, f) + 1e-12
    assert abs(inner_r(cdf - out, out)) <= 1e-9 * (1 + energy(net, out))


def test_sandwich_identity_cases():
    net = grid_network(4)
    b = grid_boundary_labels(4)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(net.n_vertices)
    prob = DirichletProblem(net, {v: float(f[net.index_of(v)]) for v in b})
    h = harmonic_extension(prob)
    cdh = discrete_gradient(net, h)

    # theta = c dh exactly: middle term 0, first = third
    e1, e2, e3 = sandwich_check(prob, f, cdh)
    assert e2 <= 1e-18 * (1 + e3)
    assert e1 == pytest.approx(e3, rel=1e-10)

    # f = h: first term 0, second = third
    theta = cdh + _random_cycle_field(net, rng, 0.5)
    e1, e2, e3 = sandwich_check(prob, h.values, theta)
    assert e1 <= 1e-16 * (1 + e3)
    assert e2 == pytest.approx(e3, rel=1e-8)

    # random admissible pair: full Pythagoras identity
    f2 = h.values.copy()
    for i in prob.interior_idx:
        f2[i] += rng.standard_normal()
    e1, e2, e3 = sandwich_check(prob, f2, theta)
    assert e1 + e2 == pytest.approx(e3, rel=1e-8)


def _tree_path_edges(net, parent, parent_edge, parent_sign, order, t, h):
    """Edges of the tree path h -> t as (vertex, edge index, sign along path)."""
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    a, b = int(h), int(t)
    path_a = []
    path_b = []
    while depth[a] > depth[b]:
        path_a.append((a, parent_edge[a], -parent_sign[a]))
        a = parent[a]
    while depth[b] > depth[a]:
        path_b.append((b, parent_edge[b], parent_sign[b]))
        b = parent[b]
    while a != b:
        path_a.append((a, parent_edge[a], -parent_sign[a]))
        a = parent[a]
        path_b.append((b, parent_edge[b], parent_sign[b]))
        b = parent[b]
    return path_a + path_b[::-1]


def _fundamental_cycle_field(net, parent, parent_edge, parent_sign, order, e):
    """chi of the fundamental cycle of non-tree edge e (flow at every vertex)."""
    vals = np.zeros(net.n_edges)
    vals[e] = 1.0
    for _, eidx, sgn in _tree_path_edges(net, parent, parent_edge, parent_sign,
                                         order, net.tails[e], net.heads[e]):
        vals[eidx] += sgn
    return EdgeField(net, vals)


def _random_cycle_field(net, rng, scale):
    """Random element of the cycle space (a flow at every vertex)."""
    parent, parent_edge, parent_sign, order = bfs_spanning_tree(net)
    tree = set(int(e) for e in parent_edge if e >= 0)
    field = EdgeField(net, np.zeros(net.n_edges))
    for e in range(net.n_edges):
        if e in tree:
            continue
        coeff = scale * rng.standard_normal()
        field = field + coeff * _fundamental_cycle_field(net, parent, parent_edge,
                                                         parent_sign, order, e)
    return field


def test_dirichlet_thomson_equality_case():
    net = path_network([1.0, 3.0])
    prob = DirichletProblem(net, {0: 0.0, 2: 1.0})
    h = harmonic_extension(prob)
    th = discrete_gradient(net, h)
    lhs, rhs = dirichlet_thomson_check(net, th, h.values, [0], [2])
    assert lhs == pytest.approx(0.75)
    assert rhs == pytest.approx(0.75)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_dirichlet_thomson_random_networks():
    rng = np.random.default_rng(42)
    for _ in range(30):
        net = random_network(rng)
        labels = list(range(net.n_vertices))
        rng.shuffle(labels)
        ka = max(1, net.n_vertices // 5)
        kb = max(1, net.n_vertices // 5)
        A = labels[:ka]
        B = labels[ka:ka + kb]
        g = {**{int(a): 0.0 for a in A}, **{int(b): 1.0 for b in B}}
        prob = DirichletProblem(net, g)
        h = harmonic_extension(prob)
        theta = discrete_gradient(net, h) + _random_cycle_field(net, rng, 0.3)
        f = h.values.copy()
        for i in prob.interior_idx:
            f[i] += 0.2 * rng.standard_normal()
        lhs, rhs = dirichlet_thomson_check(net, theta, f, A, B)
        assert lhs <= rhs + 1e-10 * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# star / cycle decomposition


def test_fully_harmonic_gradient_vanishes():
    # only constants are harmonic everywhere, so theta = c d(const) = 0
    net = grid_network(2)
    th = discrete_gradient(net, np.full(net.n_vertices, 2.5))
    s, c = star_cycle_decomposition(net, th)
    assert np.abs(s.values).max() <= 1e-14
    assert np.abs(c.values).max() <= 1e-14


def test_cycle_field_has_no_star_part():
    net = odmap.Network([0, 1, 2], [0, 1, 2], [1, 2, 0], [1.0, 2.0, 4.0])
    th = net.field([1.0, 1.0, 1.0])  # directed triangle indicator
    s, c = star_cycle_decomposition(net, th)
    assert np.abs(s.values).max() <= 1e-12
    assert np.allclose(c.values, th.values, atol=1e-12)


def test_decomposition_recomposes_and_is_orthogonal():
    rng = np.random.default_rng(77)
    net = grid_network(3)
    th = net.field(rng.standard_normal(net.n_edges))
    s, c = star_cycle_decomposition(net, th)
    assert np.abs((s + c - th).values).max() <= 1e-10
    assert abs(inner_r(s, c)) <= 1e-9 * (1 + energy(net, th))
    # star part satisfies the cycle law; cycle part satisfies node law
    assert np.abs(cycle_law_residuals(net, s)).max() <= 1e-9
    assert np.abs(c.divergence()).max() <= 1e-9


def _bfs_oracle(net, root):
    """Plain BFS visiting neighbours in increasing order; the tree edge to a
    vertex is the lowest-numbered edge from its parent."""
    adj = [[] for _ in range(net.n_vertices)]
    for e, (t, h) in enumerate(zip(net.tails, net.heads)):
        adj[t].append((int(h), e, +1))
        adj[h].append((int(t), e, -1))
    parent = [-1] * net.n_vertices
    parent_edge = [-1] * net.n_vertices
    parent_sign = [0] * net.n_vertices
    order = [root]
    for v in order:
        for u, e, sgn in sorted(adj[v]):
            if u != root and parent[u] < 0:
                parent[u], parent_edge[u], parent_sign[u] = v, e, sgn
                order.append(u)
    return parent, parent_edge, parent_sign, order


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_bfs_spanning_tree_matches_plain_bfs_on_multigraphs(seed):
    rng = np.random.default_rng(seed)
    base = random_network(rng)
    # add parallel copies of random edges, half of them reversed
    copies = rng.integers(0, base.n_edges, size=int(rng.integers(1, 20)))
    flip = rng.random(copies.size) < 0.5
    tails = np.concatenate([base.tails, np.where(flip, base.heads[copies], base.tails[copies])])
    heads = np.concatenate([base.heads, np.where(flip, base.tails[copies], base.heads[copies])])
    net = odmap.Network(np.arange(base.n_vertices), tails, heads, np.ones(tails.size))
    root = int(rng.integers(0, net.n_vertices))
    got = bfs_spanning_tree(net, root)
    for a, b in zip(got, _bfs_oracle(net, root)):
        assert np.asarray(a).tolist() == b


def test_subspace_dimensions_by_rank():
    rng = np.random.default_rng(5)
    for _ in range(5):
        net = random_network(rng)
        stars = np.array([net.star(v).values for v in range(net.n_vertices)])
        assert np.linalg.matrix_rank(stars, tol=1e-9) == net.n_vertices - 1
        # fundamental cycles
        parent, parent_edge, parent_sign, order = bfs_spanning_tree(net)
        tree = set(int(e) for e in parent_edge if e >= 0)
        cycles = []
        for e in range(net.n_edges):
            if e in tree:
                continue
            cycles.append(_fundamental_cycle_field(net, parent, parent_edge,
                                                   parent_sign, order, e).values)
        expected = net.n_edges - net.n_vertices + 1
        if cycles:
            assert np.linalg.matrix_rank(np.array(cycles), tol=1e-9) == expected
        else:
            assert expected == 0


# ---------------------------------------------------------------------------
# exit measure


def test_exit_measure_diamond_uniform(diamond):
    net = diamond.primal_network()
    prob = DirichletProblem(net, {v: 0.0 for v in [1, 2, 3, 4]})
    mu = random_walk_exit_measure(prob, 0)
    assert set(mu) == {1, 2, 3, 4}
    for v in mu:
        assert mu[v] == pytest.approx(0.25, abs=1e-12)
    assert sum(mu.values()) == pytest.approx(1.0, abs=1e-12)


def test_exit_measure_weighted_path():
    net = path_network([1.0, 3.0])
    prob = DirichletProblem(net, {0: 0.0, 2: 0.0})
    mu = random_walk_exit_measure(prob, 1)
    assert mu[2] == pytest.approx(0.75, abs=1e-12)


def test_exit_measure_sampled_matches_exact():
    net = grid_network(8)
    b = grid_boundary_labels(8)
    prob = DirichletProblem(net, {v: 0.0 for v in b})
    start = 4 * 9 + 4  # center
    exact = random_walk_exit_measure(prob, start)
    n = 100_000
    sampled = random_walk_exit_measure(prob, start, n_samples=n, seed=123)
    for v in exact:
        p = exact[v]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(sampled.get(v, 0.0) - p) <= 3 * sigma + 1e-4


def test_sampled_exit_measure_raises_when_no_walk_exits(diamond):
    prob = DirichletProblem(diamond.primal_network(), {v: 0.0 for v in [1, 2, 3, 4]})
    with pytest.raises(RuntimeError, match="no walk reached the boundary"):
        random_walk_exit_measure(prob, 0, n_samples=10, seed=0, max_steps=0)


def test_sampled_exit_measure_raises_on_walks_left_at_max_steps(diamond):
    # with only vertex 1 absorbing, a walk from the hub exits in one step
    # with probability 1/4, so some of 40 walks are still out after it
    prob = DirichletProblem(diamond.primal_network(), {1: 0.0})
    with pytest.raises(RuntimeError, match=r"\d+ of 40 walks had not reached the boundary"):
        random_walk_exit_measure(prob, 0, n_samples=40, seed=0, max_steps=1)
    mu = random_walk_exit_measure(prob, 0, n_samples=40, seed=0)
    assert mu == {1: 1.0}


def test_sampled_exit_measure_needs_a_walk(diamond):
    prob = DirichletProblem(diamond.primal_network(), {v: 0.0 for v in [1, 2, 3, 4]})
    for start in (0, 1):  # an interior start and a boundary one
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_samples must be at least 1"):
                random_walk_exit_measure(prob, start, n_samples=n, seed=0)


def test_exit_measure_rejects_negative_max_steps(diamond):
    prob = DirichletProblem(diamond.primal_network(), {v: 0.0 for v in [1, 2, 3, 4]})
    for start, n in ((0, 10), (1, 10), (0, None)):
        with pytest.raises(ValueError, match="max_steps must be at least 0"):
            random_walk_exit_measure(prob, start, n_samples=n, seed=0, max_steps=-1)


def _dense_stopped_chain(net, boundary):
    """The walk's transition matrix with absorbing boundary rows, one edge at
    a time."""
    P = np.zeros((net.n_vertices, net.n_vertices))
    for t, h, c in zip(net.tails, net.heads, net.conductances):
        P[t, h] += c
        P[h, t] += c
    P /= P.sum(axis=1, keepdims=True)
    P[boundary] = np.eye(net.n_vertices)[boundary]
    return P


@pytest.mark.parametrize("max_steps", [0, 1, 2, 3, 4, 5, 7, 9, 33])
def test_sampled_exit_measure_max_steps_is_exact(diamond, max_steps):
    """max_steps counts single steps whatever the leap length k and the
    leaps per loop pass: the walks still out after it match the chance of
    surviving exactly max_steps steps (5 sigma), a walk that exits at step
    max_steps counts, and the two errors keep their messages.  Starts at
    distance 1 to 4 from the boundary of an 8-grid, and the diamond with one
    absorbing leaf.  On the grid k = 4 and 4000 walks start at four leaps a
    pass, so 7, 9 and 33 end partway through a pass and off a multiple of k."""
    n = 4000
    grid = grid_network(8)
    cases = [(DirichletProblem(diamond.primal_network(), {1: 0.0}), 0)]
    cases += [(DirichletProblem(grid, {v: 0.0 for v in grid_boundary_labels(8)}), 4 * 9 + d)
              for d in (1, 2, 3, 4)]
    for prob, start in cases:
        net = prob.network
        P = np.linalg.matrix_power(_dense_stopped_chain(net, prob.boundary_idx), max_steps)
        row = P[net.index_of(start)]
        survive = float(np.delete(row, prob.boundary_idx).sum())
        try:
            random_walk_exit_measure(prob, start, n_samples=n, seed=5, max_steps=max_steps)
            out = 0
        except RuntimeError as err:
            if row[prob.boundary_idx].sum() == 0.0:  # no path to the boundary is this short
                assert str(err) == f"no walk reached the boundary within max_steps={max_steps}"
                continue
            msg = re.fullmatch(rf"(\d+) of {n} walks had not reached the boundary "
                               rf"after max_steps={max_steps}", str(err))
            assert msg, str(err)
            out = int(msg.group(1))
        assert row[prob.boundary_idx].sum() > 0.0
        assert abs(out - n * survive) <= 5.0 * np.sqrt(n * survive * (1.0 - survive)) + 1.0


def test_sampled_exit_measure_pinned():
    """The seeded walk from the centre of the 32-grid disk gives the
    recorded measures.  The file pins the random stream of the leaps through
    the alias tables of P^k: a change to the table, its row order or the
    choice of k records it again."""
    with open(DATA / "sampled_exit_disk32.json") as fh:
        pinned = json.load(fh)
    m = odmap.rotated_grid("disk", pinned["grid"])
    bdry, _ = m.boundary_vertices()
    prob = DirichletProblem(m.primal_network(), {int(v): 0.0 for v in bdry})
    for seed, want in pinned["measures"].items():
        mu = random_walk_exit_measure(prob, pinned["start"], n_samples=pinned["n_samples"],
                                      seed=int(seed))
        assert list(mu.items()) == [tuple(kv) for kv in want]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sampled_exit_arcs_match_exact_disk32(seed):
    """Whatever the stream, 2000 walks from the centre of the 32-grid disk put
    mass on each of 16 arcs within 5 binomial sigma (plus one walk) of the
    exact measure."""
    m = odmap.rotated_grid("disk", 32)
    interior, _ = m.interior_vertices()
    center = int(interior[np.argmin(np.hypot(*m.positions[interior].T))])
    n = 2000
    exact = exit_measure_vs_arcs(m, center, k=16)["arcs"]
    arcs = exit_measure_vs_arcs(m, center, k=16, n_samples=n, seed=seed)["arcs"]
    assert np.all(np.abs(arcs - exact) <= 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n)


def _hub_network(seed, hub, extra, log_range, integral, hub_c, absorb):
    """A hub joined to vertices 1..hub, random extra edges among the rest and
    a path of degree-2 and degree-1 vertices off it, with conductances
    across 1e-6..1e6.  The boundary is the hub, its leaves, or three
    random vertices other than the hub."""
    rng = np.random.default_rng(seed)
    n = hub + 1 + int(rng.integers(0, 40))
    tails = np.concatenate([np.zeros(hub, int), rng.integers(1, n, extra), np.arange(hub + 1, n)])
    heads = np.concatenate([np.arange(1, hub + 1), rng.integers(1, n, extra), np.arange(hub, n - 1)])
    loop = tails == heads
    tails, heads = tails[~loop], heads[~loop]
    c = 10.0 ** rng.uniform(-log_range, log_range, len(tails))
    if integral:
        c = np.ceil(c)
    if hub_c is not None:
        c[:hub] = hub_c
    boundary = {"hub": np.array([0]), "leaves": np.arange(1, hub + 1),
                "few": np.unique(rng.integers(1, n, 3))}[absorb]
    return odmap.Network(np.arange(n), tails, heads, c), boundary


class _TwoSearchTable(_AliasTable):
    """The alias sweep with one complex-key search per direction: each light
    slot searches the heavy keys (row, E) for its (row, before), and each
    heavy slot the light keys (row, D) for its (row, E).  The reference that
    the one-merge sweep must match bit for bit."""

    def _sweep(self, indptr):
        a, b = indptr[0], indptr[-1]
        starts, lengths = indptr[:-1] - a, np.diff(indptr)
        row = np.repeat(np.arange(lengths.size), lengths)
        q = self.cut[a:b]
        q *= (lengths / np.add.reduceat(q, starts))[row]
        light = q < np.minimum(np.maximum.reduceat(q, starts), 1.0)[row]
        li, hi = np.flatnonzero(light), np.flatnonzero(~light)
        rl, rh = row[li], row[hi]
        E = _row_cumsum(np.maximum(q[hi] - 1.0, 0.0), rh)
        last = np.searchsorted(rh, np.arange(lengths.size), side="right") - 1
        keep_h = np.ones(hi.size)
        if li.size:
            D = _row_cumsum(1.0 - q[li], rl)
            before = np.concatenate([[0.0], D[:-1]])
            before[np.diff(rl, prepend=-1) != 0] = 0.0
            to = np.searchsorted(rh + 1j * E, rl + 1j * before, side="right")
            self.alias[a + li] = a + hi[np.minimum(to, last[rl])]
            m = np.minimum(np.searchsorted(rl + 1j * D, rh + 1j * E), li.size - 1)
            runs_out = (rl[m] == rh) & (E > 0.0)
            keep_h[runs_out] = 1.0 + E[runs_out] - D[m[runs_out]]
        is_last = np.arange(hi.size) == last[rh]
        keep_h[is_last] = 1.0
        q[hi] = np.clip(keep_h, 0.0, 1.0)
        self.alias[a + hi] = a + np.where(is_last, hi, np.append(hi[1:], 0))
        q += np.arange(b - a) - starts[row]


def _assert_matches_two_search_sweep(table, P, k):
    """``table`` (of P^k) has the cut and alias of the two-search sweep, bit
    for bit; P^k is squared again as `_leap_table` squares it."""
    Q = P
    for _ in range(k.bit_length() - 1):
        Q = Q @ Q
    ref = _TwoSearchTable(Q.copy())
    assert np.array_equal(table.cut, ref.cut)
    assert np.array_equal(table.alias, ref.alias)


@given(seed=st.integers(0, 10_000), hub=st.integers(500, 700), extra=st.integers(0, 300),
       log_range=st.sampled_from([0.0, 2.0, 6.0]), integral=st.booleans(),
       hub_c=st.sampled_from([None, 1.0, 3.0, 0.1, 1e6]),
       absorb=st.sampled_from(["hub", "leaves", "few"]),
       max_steps=st.sampled_from([1, 5, 64, 4096]))
@example(seed=0, hub=500, extra=0, log_range=0.0, integral=False, hub_c=None, absorb="leaves",
         max_steps=4096)
@example(seed=0, hub=500, extra=300, log_range=6.0, integral=True, hub_c=1e6, absorb="few",
         max_steps=4096)
@settings(max_examples=40, deadline=None)
def test_alias_table_reconstructs_leap_matrix(seed, hub, extra, log_range, integral, hub_c,
                                              absorb, max_steps):
    """Every alias row gives its row of P^k to 1e-12, against a dense power
    of the stopped chain; keep lies in [0, 1] and each alias stays in its
    row; cut and alias equal the two-search sweep's bit for bit; k <=
    max_steps, the table never passes the cap, and a hub with hundreds of
    interior neighbours keeps k = 1.  Equal conductances put the running
    deficit and excess sums on one another, where the sweep breaks ties.
    max_steps stays at or below 4096 because the rounding of either power
    grows with k: a pocket of 14 vertices held by conductances near 1e-6
    squares on to k = 2^23, where the two powers differ by 1.7e-10 (2.4e-13
    at k = 4096)."""
    net, boundary = _hub_network(seed, hub, extra, log_range, integral, hub_c, absorb)
    is_boundary = np.zeros(net.n_vertices, bool)
    is_boundary[boundary] = True
    P = _stopped_chain(net, is_boundary)
    nnz_p = P.nnz
    table, k = _leap_table(P, ~is_boundary, max_steps)
    assert k <= max_steps
    if absorb == "few":
        assert k == 1
    assert table.cut.size <= _LEAP_CAP * nnz_p
    n = net.n_vertices
    length = table.length.astype(int)
    row = np.repeat(np.arange(n), length)
    place = np.arange(table.cut.size) - table.start[row]
    keep = table.cut - place
    assert keep.min() >= 0.0 and keep.max() <= 1.0
    assert np.all((table.alias >= table.start[row]) & (table.alias < table.start[row] + length[row]))
    got = np.zeros((n, n))
    np.add.at(got, (row, table.col), keep / length[row])
    np.add.at(got, (row, table.col[table.alias]), (1.0 - keep) / length[row])
    want = np.linalg.matrix_power(_dense_stopped_chain(net, boundary), k)
    assert np.abs(got - want).max() <= 1e-12
    # a table of P itself consumed P.data
    _assert_matches_two_search_sweep(table, _stopped_chain(net, is_boundary), k)


def test_leap_table_stops_once_walks_have_left(diamond):
    """Squaring stops once every interior row of P^k keeps at most float eps
    of its mass inside: on the diamond one step from the hub exits, so k = 1
    at the default max_steps; on a disk grid the size cap sets k = 4, and
    the table of P^4 holds at most 8 nnz(P) slots (about 6).  Both tables
    equal the two-search sweep's bit for bit (the disk's is the one the
    pinned sampled walks use)."""
    for omap, k_want in ((diamond, 1), (odmap.rotated_grid("disk", 32), 4)):
        net = omap.primal_network()
        is_boundary = np.zeros(net.n_vertices, bool)
        is_boundary[net.indices_of(omap.boundary_vertices()[0])] = True
        P = _stopped_chain(net, is_boundary)
        table, k = _leap_table(P, ~is_boundary, 10_000_000)
        assert k == k_want
        assert table.cut.size <= 8 * P.nnz
        _assert_matches_two_search_sweep(table, _stopped_chain(net, is_boundary), k)


def test_sampled_exit_measure_runs_in_bounded_memory():
    """1000 walks from the centre of the 64-grid disk peak under 8 MiB in
    tracemalloc, leap table included (about 3 MiB with k = 4), so the cap
    on P^k keeps the table from growing with k."""
    m = odmap.rotated_grid("disk", 64)
    interior, _ = m.interior_vertices()
    center = int(interior[np.argmin(np.hypot(*m.positions[interior].T))])
    prob = DirichletProblem(m.primal_network(), {int(v): 0.0 for v in m.boundary_vertices()[0]})
    tracemalloc.start()
    try:
        mu = random_walk_exit_measure(prob, center, n_samples=1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(mu.values()) == pytest.approx(1.0)
    assert peak < 8 * 2 ** 20


def test_label_lookup():
    net = odmap.Network([7, 3, 11], [7, 11], [3, 3], [1.0, 2.0])
    assert net.tails.tolist() == [0, 2] and net.heads.tolist() == [1, 1]
    assert net.index_of(11) == 2
    assert net.indices_of({3: 0.0, 7: 1.0}.keys()).tolist() == [1, 0]
    with pytest.raises(KeyError):
        net.index_of(5)
    with pytest.raises(KeyError):
        net.indices_of([3, 12])
    with pytest.raises(odmap.StructuralError, match="duplicate"):
        odmap.Network([1, 2, 1], [1], [2], [1.0])


def _sorted_lookup(labels, want):
    """The lookup by argsort and searchsorted: dense indices, or None when a label is missing."""
    by_label = np.argsort(labels, kind="stable")
    ordered = labels[by_label]
    pos = np.searchsorted(ordered, want)
    found = pos < len(labels)
    found[found] = ordered[pos[found]] == want[found]
    return by_label[pos] if found.all() else None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_label_lookup_matches_sort_and_search(seed):
    rng = np.random.default_rng(seed)
    n = 60
    perm = rng.permutation(n)
    gapped = np.sort(rng.choice(10 * n, n, replace=False))
    for labels in (perm, perm + 1000, 3 * perm + 7, rng.permutation(gapped), perm - 30):
        tails, heads = labels[:-1], labels[1:]
        net = odmap.Network(labels, tails, heads, np.ones(n - 1))
        assert np.array_equal(net.tails, _sorted_lookup(labels, tails))
        assert np.array_equal(net.heads, _sorted_lookup(labels, heads))
        want = rng.choice(labels, 200)
        assert np.array_equal(net.indices_of(want), _sorted_lookup(labels, want))
        assert net.indices_of(want.tolist()).tolist() == net.indices_of(want).tolist()
        assert net.indices_of([]).size == 0
        lo, hi = int(labels.min()), int(labels.max())
        gaps = np.setdiff1d(np.arange(lo, hi + 1), labels)
        outside = [lo - 10 ** 6, hi + 10 ** 6, *range(lo - 5, lo), *range(hi + 1, hi + 6)]
        for missing in [*outside, *gaps[:3].tolist()]:
            with pytest.raises(KeyError) as err:
                net.indices_of([int(labels[0]), missing, int(labels[1])])
            assert err.value.args == (missing,)
            with pytest.raises(KeyError):
                net.index_of(missing)
        with pytest.raises(odmap.StructuralError, match="duplicate"):
            odmap.Network(np.append(labels, labels[n // 2]), tails, heads, np.ones(n - 1))


def test_label_lookup_names_the_first_missing_label():
    net = odmap.Network([4, 6, 8], [4], [8], [1.0])
    for want, first in (([6, 5, 9], 5), ([6, 9, 5], 9), ([2, 4], 2)):
        with pytest.raises(KeyError) as err:
            net.indices_of(want)
        assert err.value.args == (first,)
    with pytest.raises(KeyError):
        odmap.Network([4, 6, 8], [4], [7], [1.0])
    empty = odmap.Network([], [], [], [])
    assert empty.n_vertices == 0 and empty.indices_of([]).size == 0
    with pytest.raises(KeyError):
        empty.index_of(0)
