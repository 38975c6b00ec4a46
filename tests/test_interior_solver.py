"""The one interior-Laplacian solver: a cached sparse factorisation with a
residual check on every solve, shared by harmonic extension, projection,
the exact exit measure and the star/cycle split."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmap
from odmap import dirichlet, network
from odmap.network import (
    DirichletProblem,
    _pcg,
    discrete_gradient,
    harmonic_extension,
    project_to_current,
    random_walk_exit_measure,
    star_cycle_decomposition,
)

EPS = np.finfo(float).eps


def hub_network(rng, n):
    """Random connected multigraph on n vertices: a random tree, one hub
    joined to about half the vertices, a few extra edges, and log-uniform
    conductances spread over 1e-6 .. 1e6."""
    tails = [int(rng.integers(0, v)) for v in range(1, n)]
    heads = list(range(1, n))
    hub = int(rng.integers(0, n))
    spokes = [v for v in range(n) if v != hub and rng.random() < 0.5]
    tails += [hub] * len(spokes)
    heads += spokes
    for a, b in rng.integers(0, n, size=(int(rng.integers(0, n)), 2)):
        if a != b:
            tails.append(int(a))
            heads.append(int(b))
    c = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), len(tails)))
    return odmap.Network(np.arange(n), tails, heads, c)


def assert_agrees_with_references(A, b, x):
    """x agrees with a dense np.linalg.solve and with Jacobi-PCG as far as
    the residuals of the two solutions allow.

    A is an interior Laplacian, an M-matrix, so A^-1 is entrywise
    nonnegative and |x - y| <= A^-1 (|A x - b| + |A y - b|) for any y.  The
    computed residuals carry rounding of order eps (|A| |x| + |b|), which
    the slack term covers; the factor 2 covers the dense solve of the bound
    itself.  Conductances over 1e+-6 make A badly conditioned, so a fixed
    tolerance on x - y would not hold.
    """
    Ad = A.toarray()
    dense = np.linalg.solve(Ad, b)
    inv_diag = 1.0 / A.diagonal()  # Jacobi
    pcg = _pcg(A.tocsr(), b, lambda r: inv_diag * r, 1e-14 * float(np.linalg.norm(b)),
               max(1000, 40 * b.size))
    for y in (pcg, dense):
        slack = 8 * EPS * (np.abs(Ad) @ (np.abs(x) + np.abs(y)) + 2 * np.abs(b))
        z = np.linalg.solve(Ad, np.abs(Ad @ x - b) + np.abs(Ad @ y - b) + slack)
        assert np.all(np.abs(x - y) <= 2 * z + 1e-300)
    return dense, 2 * z  # the loop ends on dense: the bound on |x - dense|


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400))
@settings(max_examples=40, deadline=None)
def test_solves_match_dense_and_pcg_references(seed, n):
    rng = np.random.default_rng(seed)
    net = hub_network(rng, n)
    B = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    prob = DirichletProblem(net, {int(v): float(rng.standard_normal()) for v in B})
    I, Bi = prob.interior_idx, prob.boundary_idx
    L = net.laplacian
    L_II = L[I][:, I]

    # harmonic extension
    h = harmonic_extension(prob).values
    assert np.array_equal(h[Bi], prob.boundary_vals)
    assert_agrees_with_references(L_II, -(L[I][:, Bi] @ prob.boundary_vals), h[I])

    # exact exit measure: mu = -L[B][:, I] y with L_II y = e_start, so mu is
    # off the dense oracle's by at most |L[B][:, I]| |y - y_dense| plus the
    # rounding of the two products
    start = int(rng.choice(I))
    mu = random_walk_exit_measure(prob, start)
    e = np.zeros(I.size)
    e[np.searchsorted(I, start)] = 1.0
    y = net.grounded(Bi).solve(e)
    y_dense, y_err = assert_agrees_with_references(L_II, e, y)
    L_BI = abs(L[Bi][:, I])
    got = np.array([mu[int(v)] for v in net.labels[Bi]])
    assert np.all(np.abs(got + L[Bi][:, I] @ y_dense)
                  <= L_BI @ y_err + 8 * EPS * (L_BI @ (np.abs(y) + np.abs(y_dense))) + 1e-300)

    # star/cycle split, grounded at vertex 0
    theta = net.field(rng.standard_normal(net.n_edges))
    star, cycle = star_cycle_decomposition(net, theta)
    keep = np.arange(1, n)
    a = np.zeros(n)
    a[keep] = net.grounded([0]).solve(-theta.divergence()[keep])
    assert np.array_equal(star.values, discrete_gradient(net, a).values)
    assert np.array_equal(cycle.values, (theta - star).values)
    assert_agrees_with_references(L[keep][:, keep], -theta.divergence()[keep], a[keep])


def test_exact_exit_measure_keeps_the_boundary_order():
    # labels unrelated to the dense order: neither the sorted nor the shuffled
    # labels list the boundary in the solver's ascending row order
    rng = np.random.default_rng(11)
    base = hub_network(rng, 120)
    labels = 3 * rng.permutation(120) + 7
    net = odmap.Network(labels, labels[base.tails], labels[base.heads],
                        rng.uniform(0.5, 2.0, base.n_edges))
    B = np.sort(rng.choice(labels, size=30, replace=False))
    start = int(rng.choice(np.setdiff1d(labels, B)))
    shuffled = rng.permutation(B).tolist()

    def exit_measure(keys):
        return random_walk_exit_measure(DirichletProblem(net, dict.fromkeys(keys, 0.0)), start)

    in_order, mu = exit_measure(B.tolist()), exit_measure(shuffled)
    assert list(in_order) == B.tolist()
    assert list(mu) == shuffled
    got = np.array(list(mu.values()))
    assert np.array_equal(got, [in_order[v] for v in shuffled])

    L = net.laplacian.toarray()
    Bi = net.indices_of(shuffled)
    I = np.setdiff1d(np.arange(net.n_vertices), Bi)
    y = np.linalg.solve(L[np.ix_(I, I)], (I == net.index_of(start)).astype(float))
    assert np.abs(got + L[np.ix_(Bi, I)] @ y).max() <= 1e-12


def _count_splu(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    real = network.splu
    monkeypatch.setattr(network, "splu", counted)
    return calls


def test_one_factorisation_serves_every_solve_and_exit_on_a_map(monkeypatch):
    m = odmap.rotated_grid("disk", 24)
    calls = _count_splu(monkeypatch)
    for tf in dirichlet.CATALOG.values():
        dirichlet.solve_dirichlet(m, tf)
    interior, _ = m.interior_vertices()
    for s in interior[:: len(interior) // 8][:8]:
        dirichlet.exit_measure_vs_arcs(m, int(s))
    assert len(calls) == 1


def test_a_second_boundary_set_replaces_the_cached_factor(monkeypatch):
    net = hub_network(np.random.default_rng(3), 60)
    calls = _count_splu(monkeypatch)
    first = DirichletProblem(net, {0: 1.0, 1: -1.0})
    second = DirichletProblem(net, {2: 1.0, 3: 0.5, 4: -1.0})
    harmonic_extension(first)
    solver = net.grounded(first.boundary_idx)
    assert np.array_equal(solver.interior, first.interior_idx)
    # the key is the interior set, not the order the boundary is given in
    harmonic_extension(DirichletProblem(net, {1: 2.0, 0: 3.0}))
    assert len(calls) == 1
    harmonic_extension(second)
    assert len(calls) == 2
    assert net.grounded(second.boundary_idx) is not solver
    assert np.array_equal(net._grounded.interior, second.interior_idx)
    # one slot: going back to the first set factors again
    project_to_current(first, np.zeros(net.n_vertices))
    assert len(calls) == 3
    assert np.array_equal(net._grounded.interior, first.interior_idx)


def test_the_cached_factor_is_keyed_by_the_boundary_set_in_any_order(monkeypatch):
    """grounded(B) finds the one cached solver for B given in any order,
    repeats included, without factoring again; another set replaces it."""
    rng = np.random.default_rng(5)
    net = hub_network(rng, 80)
    calls = _count_splu(monkeypatch)
    B = rng.choice(80, size=12, replace=False)
    solver = net.grounded(B)
    assert np.array_equal(solver.boundary, np.sort(B))
    assert np.array_equal(solver.interior, np.setdiff1d(np.arange(80), B))
    for same in (B[::-1], np.sort(B), rng.permutation(B).tolist(), np.concatenate([B, B[:3]])):
        assert net.grounded(same) is solver
    assert len(calls) == 1
    other = net.grounded(B[1:])
    assert other is not solver and net._grounded is other and len(calls) == 2
    assert np.array_equal(other.boundary, np.sort(B[1:]))
    assert net.grounded(B[1:][::-1]) is other and len(calls) == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_boundary_data_is_rejected_before_any_factorisation(monkeypatch, bad):
    """The one array-level solve names the first non-finite boundary value,
    in the data's order, before it factors: the residual check is not blamed."""
    net = hub_network(np.random.default_rng(4), 30)
    calls = _count_splu(monkeypatch)
    prob = DirichletProblem(net, {3: 1.0, 7: bad, 11: bad, 2: 0.5})
    with pytest.raises(ValueError, match=f"boundary value {bad} at vertex 7 is not finite"):
        harmonic_extension(prob)
    f = np.zeros(net.n_vertices)
    f[11] = bad
    with pytest.raises(ValueError, match=f"boundary value {bad} at vertex 11 is not finite"):
        project_to_current(DirichletProblem(net, {3: 1.0, 11: 0.0}), f)
    assert calls == [] and net._grounded is None


def test_a_solve_that_misses_its_residual_check_raises(monkeypatch):
    class Off:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1 + 1e-6)

    real = network.splu
    monkeypatch.setattr(network, "splu", lambda *a, **k: Off(real(*a, **k)))
    # on the unit path 0-1-2 the answer 0.5 is off by 5e-7, a node residual
    # of 1e-6 against the check's 1e-9 * pi(1) * 0.5
    net = odmap.Network([0, 1, 2], [0, 1], [1, 2], [1.0, 1.0])
    with pytest.raises(RuntimeError, match="worst node residual 1.000e-06"):
        harmonic_extension(DirichletProblem(net, {0: 0.0, 2: 1.0}))
