import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odmap
from odmap.dirichlet import (
    CATALOG,
    SweepRecord,
    convergence_sweep,
    energy_convergence_check,
    energy_pair_check,
    exit_measure_vs_arcs,
    get_test_function,
    poisson_arc_masses,
    solve_dirichlet,
    sup_error,
    theorem_shape,
)
from odmap.generators import GeneratorSpec
from odmap.geometry import integrate_over_quad
from odmap.network import DirichletProblem

from conftest import central_primal_vertex


# ---------------------------------------------------------------------------
# test-function catalog invariants


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_is_harmonic_fd(name):
    tf = get_test_function(name)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(40, 2))
    h = 1e-4
    lap = (
        tf(pts + [h, 0]) + tf(pts - [h, 0]) + tf(pts + [0, h]) + tf(pts - [0, h])
        - 4 * tf(pts)
    ) / h**2
    assert np.abs(lap).max() <= 1e-6


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_gradient_fd(name):
    tf = get_test_function(name)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(30, 2))
    h = 1e-6
    gx = (tf(pts + [h, 0]) - tf(pts - [h, 0])) / (2 * h)
    gy = (tf(pts + [0, h]) - tf(pts - [0, h])) / (2 * h)
    g = tf.grad(pts)
    assert np.abs(g[:, 0] - gx).max() <= 1e-6
    assert np.abs(g[:, 1] - gy).max() <= 1e-6


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_conjugate_cauchy_riemann(name):
    tf = get_test_function(name)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30, 2))
    h = 1e-6
    cx = (tf.conjugate(pts + [h, 0]) - tf.conjugate(pts - [h, 0])) / (2 * h)
    cy = (tf.conjugate(pts + [0, h]) - tf.conjugate(pts - [0, h])) / (2 * h)
    g = tf.grad(pts)
    assert np.abs(g[:, 0] - cy).max() <= 1e-8 * (1 + np.abs(g).max())
    assert np.abs(g[:, 1] + cx).max() <= 1e-8 * (1 + np.abs(g).max())


_SIDE = st.floats(0.05, 2.0)


@st.composite
def _boxes(draw):
    """Axis-aligned boxes that straddle both axes or sit in one quadrant."""
    if draw(st.booleans()):
        return (-np.array([draw(_SIDE), draw(_SIDE)]), np.array([draw(_SIDE), draw(_SIDE)]))
    sign = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)])
    a = sign * [draw(_SIDE), draw(_SIDE)]
    b = a + sign * [draw(_SIDE), draw(_SIDE)]
    return np.minimum(a, b), np.maximum(a, b)


@pytest.mark.parametrize("name", sorted(CATALOG))
@given(box=_boxes())
@example(box=(np.array([-0.7, -0.3]), np.array([0.9, 1.1])))
@settings(max_examples=40, deadline=None)
def test_catalog_sup_formulas_vs_sampling(name, box):
    # the sups read |F'| and |F''| at the box corners: each must be a corner
    # value and at least the maximum over a grid of the box
    tf = get_test_function(name)
    lo, hi = box
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], 40), np.linspace(lo[1], hi[1], 40))
    pts = np.column_stack([X.ravel(), Y.ravel()])
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])

    def grad_norm(p):
        return np.hypot(*tf.grad(p).T)

    def hess_norm(p):
        return np.linalg.norm(tf.hess(p), ord=2, axis=(1, 2))

    for sup, norm in ((tf.sup_grad(lo, hi), grad_norm), (tf.sup_hess(lo, hi), hess_norm)):
        tol = 1e-12 * (1.0 + sup)
        assert sup >= norm(pts).max() - tol
        assert np.abs(norm(corners) - sup).min() <= tol


def _absmax(lo, hi):
    return np.maximum(np.abs(lo), np.abs(hi))


# the catalog's hand-derived closed forms in x, y: f, conjugate, grad, the
# Hessian's rows in order, and the sups over a box (lo, hi)
_CLOSED_FORMS = {
    "coord_x": (lambda x, y: x, lambda x, y: y,
                lambda x, y: (1 + 0 * x, 0 * x), lambda x, y: (0 * x, 0 * x, 0 * x, 0 * x),
                lambda lo, hi: 1.0, lambda lo, hi: 0.0),
    "coord_y": (lambda x, y: y, lambda x, y: -x,
                lambda x, y: (0 * x, 1 + 0 * x), lambda x, y: (0 * x, 0 * x, 0 * x, 0 * x),
                lambda lo, hi: 1.0, lambda lo, hi: 0.0),
    "xy": (lambda x, y: x * y, lambda x, y: 0.5 * (y**2 - x**2),
           lambda x, y: (y, x), lambda x, y: (0 * x, 1 + 0 * x, 1 + 0 * x, 0 * x),
           lambda lo, hi: np.hypot(*_absmax(lo, hi)), lambda lo, hi: 1.0),
    "x2_minus_y2": (lambda x, y: x**2 - y**2, lambda x, y: 2 * x * y,
                    lambda x, y: (2 * x, -2 * y), lambda x, y: (2 + 0 * x, 0 * x, 0 * x, -2 + 0 * x),
                    lambda lo, hi: 2 * np.hypot(*_absmax(lo, hi)), lambda lo, hi: 2.0),
    "re_z3": (lambda x, y: x**3 - 3 * x * y**2, lambda x, y: 3 * x**2 * y - y**3,
              lambda x, y: (3 * (x**2 - y**2), -6 * x * y),
              lambda x, y: (6 * x, -6 * y, -6 * y, -6 * x),
              lambda lo, hi: 3 * (_absmax(lo, hi) ** 2).sum(),
              lambda lo, hi: 6 * np.hypot(*_absmax(lo, hi))),
    "im_z3": (lambda x, y: 3 * x**2 * y - y**3, lambda x, y: -(x**3 - 3 * x * y**2),
              lambda x, y: (6 * x * y, 3 * (x**2 - y**2)),
              lambda x, y: (6 * y, 6 * x, 6 * x, -6 * y),
              lambda lo, hi: 3 * (_absmax(lo, hi) ** 2).sum(),
              lambda lo, hi: 6 * np.hypot(*_absmax(lo, hi))),
    "exp_x_cos_y": (lambda x, y: np.exp(x) * np.cos(y), lambda x, y: np.exp(x) * np.sin(y),
                    lambda x, y: (np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y)),
                    lambda x, y: (np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y),
                                  -np.exp(x) * np.sin(y), -np.exp(x) * np.cos(y)),
                    lambda lo, hi: np.exp(hi[0]), lambda lo, hi: np.exp(hi[0])),
}


def test_catalog_matches_the_closed_forms():
    assert sorted(_CLOSED_FORMS) == sorted(CATALOG)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(500, 2))
    x, y = pts.T
    boxes = np.sort(rng.uniform(-2, 2, size=(40, 2, 2)), axis=1)  # (lo, hi) rows

    def close(got, want):
        want = np.asarray(want, float)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))

    for name, (f, conj, grad, hess, sup_grad, sup_hess) in _CLOSED_FORMS.items():
        tf = get_test_function(name)
        close(tf(pts), f(x, y))
        close(tf.f(pts), f(x, y))
        close(tf(pts[0]), f(x[:1], y[:1]))
        close(tf.conjugate(pts), conj(x, y))
        close(tf.grad(pts), np.column_stack(grad(x, y)))
        close(tf.hess(pts), np.stack(hess(x, y), axis=1).reshape(-1, 2, 2))
        for lo, hi in boxes:
            assert tf.sup_grad(lo, hi) == pytest.approx(sup_grad(lo, hi), rel=1e-15, abs=0)
            assert tf.sup_hess(lo, hi) == pytest.approx(sup_hess(lo, hi), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# gradient approximation lemma (test oracle)


def test_gradient_approx_lemma(grid16_square, packed500):
    # |f(v2) - f(v1) - <grad f(q), v> |v1 v2|| <= 2 M |v1 v2| eps per face
    for m in (grid16_square, packed500[2]):
        eps = m.mesh_size()
        pos = m.positions
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        for name in ("x2_minus_y2", "exp_x_cos_y", "re_z3"):
            tf = get_test_function(name)
            M = tf.sup_hess(lo, hi)
            f = m.faces
            v1, w1, v2, w2 = pos[f[:, 0]], pos[f[:, 1]], pos[f[:, 2]], pos[f[:, 3]]
            # q = intersection of the diagonals (or the bend point); the
            # bound holds for any point of the face, use the primal midpoint
            # projection onto the dual diagonal
            dv = v2 - v1
            lv = np.hypot(*dv.T)
            q = 0.5 * (w1 + w2)
            grad_q = tf.grad(q)
            chord = tf(v2) - tf(v1)
            lin = np.sum(grad_q * dv, axis=1)
            assert np.all(np.abs(chord - lin) <= 2 * M * lv * eps + 1e-12)


# ---------------------------------------------------------------------------
# solver


def test_solve_coordinates_exact(grid16_square):
    for name in ("coord_x", "coord_y"):
        tf = get_test_function(name)
        assert sup_error(grid16_square, odmap.unit_square(), tf) <= 1e-9


def test_sup_error_with_no_vertex_in_the_domain():
    far = odmap.DomainSpec("polygon", polygon=[(5, 5), (6, 5), (6, 6), (5, 6)])
    with pytest.raises(odmap.GeometryError, match="no primal vertex lies in the domain"):
        sup_error(odmap.rotated_grid("square", 4), far, get_test_function("coord_x"))


def test_solve_diamond_center_symmetry(diamond):
    tf = get_test_function("x2_minus_y2")
    h = solve_dirichlet(diamond, tf)
    assert h.at(0) == pytest.approx(0.0, abs=1e-12)
    tf2 = get_test_function("xy")
    h2 = solve_dirichlet(diamond, tf2)
    assert h2.at(0) == pytest.approx(0.0, abs=1e-12)


def test_solve_matches_dense_oracle(grid16_square):
    tf = get_test_function("x2_minus_y2")
    h = solve_dirichlet(grid16_square, tf)
    net = h.network
    bdry, _ = grid16_square.boundary_vertices()
    prob = DirichletProblem(net, {int(v): float(tf(grid16_square.positions[[v]])[0])
                                  for v in bdry})
    L = net.laplacian.toarray()
    I, B = prob.interior_idx, prob.boundary_idx
    x = np.linalg.solve(L[np.ix_(I, I)], -L[np.ix_(I, B)] @ prob.boundary_vals)
    assert np.abs(h.values[I] - x).max() <= 1e-9


def test_solve_respects_maximum_principle(packed500):
    m = packed500[2]
    tf = get_test_function("exp_x_cos_y")
    h = solve_dirichlet(m, tf)
    bdry, _ = m.boundary_vertices()
    bvals = tf(m.positions[bdry])
    assert h.values.max() <= bvals.max() + 1e-10
    assert h.values.min() >= bvals.min() - 1e-10


def test_solve_with_boundary_table(diamond):
    bdry, _ = diamond.boundary_vertices()
    h = solve_dirichlet(diamond, {int(v): 1.0 for v in bdry})
    assert h.at(0) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# energy comparisons


def test_energy_pair_linear_exact(grid16_square):
    out = energy_pair_check(grid16_square, get_test_function("coord_x"))
    assert abs(out["discrepancy"]) <= 1e-12
    assert out["integral"] == pytest.approx(grid16_square.area(), rel=1e-10)
    # per-face identity: each face contributes its area to (E* + E**)/2
    assert 0.5 * (out["e_primal"] + out["e_dual"]) == pytest.approx(
        grid16_square.area(), rel=1e-12)


def test_energy_pair_bound_and_shrink():
    tf = get_test_function("x2_minus_y2")
    d8 = energy_pair_check(odmap.rotated_grid("square", 8), tf)
    d16 = energy_pair_check(odmap.rotated_grid("square", 16), tf)
    for d in (d8, d16):
        assert abs(d["discrepancy"]) <= d["bound"]
    assert abs(d16["discrepancy"]) <= abs(d8["discrepancy"]) / 2


def test_energy_pair_bound_exp(grid16_square, packed500):
    tf = get_test_function("exp_x_cos_y")
    for m in (grid16_square, packed500[2]):
        out = energy_pair_check(m, tf)
        assert abs(out["discrepancy"]) <= out["bound"]


def test_energy_convergence_linear(grid16_square):
    lhs, rhs = energy_convergence_check(grid16_square, get_test_function("coord_x"))
    assert lhs <= 1e-18


def test_energy_convergence_bound_all_instances(grid16_square, packed500):
    for m in (grid16_square, packed500[2]):
        for name in ("x2_minus_y2", "exp_x_cos_y", "im_z3"):
            lhs, rhs = energy_convergence_check(m, get_test_function(name))
            assert lhs <= rhs


def test_energy_convergence_decay_exp():
    # genuine discrete error decays by at least 2x per refinement
    tf = get_test_function("exp_x_cos_y")
    prev = None
    for n in (8, 16, 32):
        lhs, rhs = energy_convergence_check(odmap.rotated_grid("square", n), tf)
        assert lhs <= rhs
        if prev is not None:
            assert prev / lhs >= 2
        prev = lhs


def test_quadratics_exact_on_grid_families():
    # the canonical weights of the rotated and rectangle families average
    # the two adjacent spacings, which makes every quadratic harmonic exact
    tf = get_test_function("x2_minus_y2")
    cuts = np.linspace(0, 1, 9) ** 1.3
    for m in (odmap.rotated_grid("square", 12), odmap.rect_nonuniform(cuts, cuts)):
        lhs, _ = energy_convergence_check(m, tf)
        assert lhs <= 1e-18


def test_energy_convergence_decay_perturbed():
    # perturbed grids break the cancellation, so quadratic data has genuine
    # discrete error that decays across refinements
    tf = get_test_function("x2_minus_y2")
    vals = []
    for n in (8, 16, 32):
        m = odmap.perturbed(odmap.rotated_grid("square", n), 0.3, seed=4)
        lhs, rhs = energy_convergence_check(m, tf)
        assert 1e-14 < lhs <= rhs
        vals.append(lhs)
    # each level resamples the perturbation, so only aggregate decay is stable
    assert vals[2] < vals[0] / 2


def test_conjugate_flow_construction(grid16_square, packed500):
    # the edge field built from the harmonic conjugate on the dual vertices
    # is a flow on the interior, and its distance to the discrete gradient is
    # controlled by the same explicit per-face bound; this exercises the
    # orientation convention of the primal/dual edge bijection end to end
    from odmap.network import EdgeField

    for m in (grid16_square, packed500[2]):
        for name in ("x2_minus_y2", "exp_x_cos_y"):
            tf = get_test_function(name)
            net = m.primal_network()
            pos = m.positions
            conj = tf.conjugate(pos)
            f = m.faces
            theta = EdgeField(net, conj[f[:, 3]] - conj[f[:, 1]])
            phi = odmap.discrete_gradient(net, tf(pos[net.labels]))
            div = theta.divergence()
            interior, _ = m.interior_vertices()
            idx = [net.index_of(v) for v in interior]
            scale = 1 + np.abs(theta.values).max()
            assert np.abs(div[idx]).max() <= 1e-10 * scale
            lo, hi = pos.min(axis=0), pos.max(axis=0)
            M = tf.sup_hess(lo, hi)
            bound = 32.0 * m.area() * M**2 * m.mesh_size() ** 2
            from odmap.network import energy

            assert energy(net, phi - theta) <= bound
            # and the energy error of the solve is below that distance
            lhs, _ = energy_convergence_check(m, tf)
            assert lhs <= energy(net, phi - theta) + 1e-12


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_exact_on_polynomial():
    quad = np.array([[0.0, 0.0], [1.2, -0.1], [1.3, 1.4], [-0.2, 1.1]])

    def f(p):
        return p[:, 0] ** 2 + 2 * p[:, 0] * p[:, 1]

    # oracle: the edge-midpoint rule integrates quadratics exactly over a
    # triangle, so split and sum
    from odmap.geometry import split_quad

    exact = 0.0
    for tri in split_quad(quad):
        a, b, c = tri
        area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        mids = np.array([(a + b) / 2, (b + c) / 2, (c + a) / 2])
        exact += area * f(mids).mean()
    assert integrate_over_quad(f, quad) == pytest.approx(exact, rel=1e-12)


def test_sup_error_decay_exp():
    tf = get_test_function("exp_x_cos_y")
    dom = odmap.unit_square()
    errs = [sup_error(odmap.rotated_grid("square", n), dom, tf) for n in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# sweeps


def test_convergence_sweep_records(tmp_path):
    spec = GeneratorSpec("rotated_grid", domain="square")
    tf = get_test_function("exp_x_cos_y")
    path = tmp_path / "sweep.csv"
    recs = convergence_sweep(spec, [8, 16], tf, csv_path=path)
    assert len(recs) == 2
    assert all(not r.error for r in recs)
    assert recs[1].eps == pytest.approx(recs[0].eps / 2)
    assert recs[1].sup_error < recs[0].sup_error
    for r in recs:
        assert r.energy_error <= r.prop52_bound
        assert abs(r.prop51_disc) <= r.prop51_bound
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(SweepRecord.CSV_COLUMNS)
    assert len(lines) == 3


def test_sweep_delta_column_matches_hausdorff(tmp_path):
    spec = GeneratorSpec("rotated_grid", domain="square")
    tf = get_test_function("coord_x")
    recs = convergence_sweep(spec, [8, 16], tf)
    for r, n in zip(recs, (8, 16)):
        m = odmap.rotated_grid("square", n)
        assert r.delta == pytest.approx(
            odmap.hausdorff_delta(m, odmap.unit_square(), 2000), rel=1e-6)


def test_sweep_handles_generator_failure():
    spec = GeneratorSpec("rotated_grid", domain="square")
    tf = get_test_function("coord_x")
    recs = convergence_sweep(spec, [8, 1], tf)  # n=1 is invalid
    assert not recs[0].error
    assert recs[1].error


def test_sweep_packed_family():
    spec = GeneratorSpec("packed_lattice", domain="disk")
    tf = get_test_function("x2_minus_y2")
    recs = convergence_sweep(spec, [6, 12], tf)
    assert all(not r.error for r in recs)
    assert recs[1].sup_error <= recs[0].sup_error * 1.05  # 5% refinement noise


def test_sweep_random_packed_refines_by_vertex_count():
    # refine the random packed family by quadrupling the vertex count
    spec = GeneratorSpec("packed_triangulation", seed=5, domain="disk")
    tf = get_test_function("x2_minus_y2")
    recs = convergence_sweep(spec, [150, 600], tf)
    assert all(not r.error for r in recs)
    assert recs[1].sup_error <= recs[0].sup_error * 1.05
    assert recs[1].eps < recs[0].eps
    for r in recs:
        assert r.energy_error <= r.prop52_bound


# ---------------------------------------------------------------------------
# harmonic measure


def test_poisson_masses_center_uniform():
    masses = poisson_arc_masses(0.0, 0.0, 16)
    assert np.allclose(masses, 1 / 16, atol=1e-12)


def test_poisson_masses_sum_to_one():
    for r, phi in ((0.3, 0.7), (0.8, -2.0), (0.5, 3.0)):
        masses = poisson_arc_masses(r, phi, 12)
        assert masses.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(masses > 0)


def test_poisson_masses_match_quadrature_oracle():
    r, phi0, k = 0.55, 0.9, 8
    masses = poisson_arc_masses(r, phi0, k)
    ts = np.linspace(0, 2 * np.pi, 200001)
    P = (1 - r**2) / (1 - 2 * r * np.cos(ts - phi0) + r**2) / (2 * np.pi)
    for i in range(k):
        sel = (ts >= 2 * np.pi * i / k) & (ts < 2 * np.pi * (i + 1) / k)
        approx = np.trapezoid(P[sel], ts[sel])
        assert masses[i] == pytest.approx(approx, abs=1e-4)


def _poisson_arcs_by_antiderivative(r, phi0, k):
    """Arc masses from F(theta) = arctan((1 + r)/(1 - r) tan(theta/2)) / pi,
    the antiderivative of the Poisson kernel on [-pi, pi], theta the angle
    from phi0; an arc that passes phi0 + pi is split there."""
    def F(theta):
        return np.arctan((1 + r) / (1 - r) * np.tan(theta / 2)) / np.pi

    a = (2 * np.pi * np.arange(k) / k - phi0 + np.pi) % (2 * np.pi) - np.pi
    b = a + 2 * np.pi / k
    return np.where(b <= np.pi, F(b) - F(a),
                    (0.5 - F(a)) + (F(b - 2 * np.pi) + 0.5))


@pytest.mark.parametrize("k", [1, 2, 4, 16])
@pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
@pytest.mark.parametrize("phi0", [0.1, -2.0])
def test_poisson_masses_near_the_rim(r, k, phi0):
    # near the rim the image of an arc that holds the start wraps almost all
    # the way round the circle
    masses = poisson_arc_masses(r, phi0, k)
    assert masses.shape == (k,)
    assert np.all(masses >= 0.0)
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert np.abs(masses - _poisson_arcs_by_antiderivative(r, phi0, k)).max() <= 1e-12


def test_exit_measure_diamond_symmetric(diamond):
    out = exit_measure_vs_arcs(diamond, 0, k=4)
    assert out["tv"] <= 1e-12


def test_exit_measure_off_center():
    # from an off-center start the reference is the Poisson kernel, and the
    # discrete exit measure converges to it
    tri = odmap.triangular_disk_triangulation(18)
    p = odmap.pack_in_disk(tri, tol=1e-7)
    m = odmap.orthodiagonal_from_packing(tri, p)
    start = central_primal_vertex(m, target=(0.3, 0.0))
    out = exit_measure_vs_arcs(m, start, k=8)
    assert out["tv"] <= 0.12
    assert out["reference"].sum() == pytest.approx(1.0, abs=1e-9)


def test_exit_measure_refinement_decreases_tv():
    tvs = []
    for rows in (6, 12, 24):
        tri = odmap.triangular_disk_triangulation(rows)
        p = odmap.pack_in_disk(tri, tol=1e-7)
        m = odmap.orthodiagonal_from_packing(tri, p)
        start = central_primal_vertex(m)
        tvs.append(exit_measure_vs_arcs(m, start, k=16)["tv"])
    assert tvs[0] > tvs[1] > tvs[2]


def test_exit_measure_sampled_mode(diamond):
    out = exit_measure_vs_arcs(diamond, 0, k=4, n_samples=4000, seed=9)
    assert out["tv"] <= 0.05


def test_exit_measure_start_outside_disk_raises_before_walking(monkeypatch):
    """A start at r >= 1 from the centre is rejected before the exit measure
    runs: on the 32-grid square a vertex at r = 1.30 raises GeometryError and
    no walk is drawn, in either mode."""
    m = odmap.rotated_grid("square", 32)
    start = central_primal_vertex(m, target=(0.94, 0.91))
    assert np.hypot(*m.positions[start]) > 1.3

    def no_walk(*args, **kwargs):
        raise AssertionError("the exit measure ran")

    monkeypatch.setattr(odmap.dirichlet, "random_walk_exit_measure", no_walk)
    for n_samples in (None, 2000):
        with pytest.raises(odmap.GeometryError, match="inside the disk"):
            exit_measure_vs_arcs(m, start, n_samples=n_samples, seed=1)
        with pytest.raises(odmap.GeometryError, match="inside the disk"):
            exit_measure_vs_arcs(m, central_primal_vertex(m), n_samples=n_samples, seed=1,
                                 center=(1.0, 1.0))
    with pytest.raises(KeyError):
        exit_measure_vs_arcs(m, -1)  # not a primal vertex: the network's error


def _map_case(request, name):
    """(map, centre of its unit disk) for the array-path comparisons."""
    if name == "disk64":
        return odmap.rotated_grid("disk", 64), np.zeros(2)
    if name == "perturbed32":
        return odmap.perturbed(odmap.rotated_grid("square", 32), 0.3, seed=4), np.full(2, 0.5)
    return request.getfixturevalue("packed500")[2], np.zeros(2)


@pytest.mark.parametrize("name", ["disk64", "perturbed32", "packed500"])
def test_array_path_matches_the_public_dict_api(request, name):
    """solve_dirichlet and exact exit_measure_vs_arcs run on index arrays;
    DirichletProblem with harmonic_extension or random_walk_exit_measure
    gives the same values bit for bit, and the exit masses in the same order."""
    m, center = _map_case(request, name)
    net, (bdry, _), (interior, dual) = m.primal_network(), m.boundary_vertices(), m.interior_vertices()
    for tf in CATALOG.values():
        data = dict(zip(bdry.tolist(), tf(m.positions[bdry]).tolist()))
        expected = odmap.harmonic_extension(DirichletProblem(net, data)).values
        assert np.array_equal(solve_dirichlet(m, tf).values, expected)
        assert np.array_equal(solve_dirichlet(m, dict(reversed(data.items()))).values, expected)

    problem = DirichletProblem(net, dict.fromkeys(bdry.tolist(), 0.0))
    for target in ((0.0, 0.0), (0.3, -0.2), (-0.4, 0.25)):
        s = int(interior[np.argmin(np.hypot(*(m.positions[interior] - center - target).T))])
        mu = exit_measure_vs_arcs(m, s, center=center)["exit_measure"]
        assert list(mu.items()) == list(odmap.random_walk_exit_measure(problem, s).items())
    # the boundary vertex nearest the centre exits where it stands
    b = int(bdry[np.argmin(np.hypot(*(m.positions[bdry] - center).T))])
    assert exit_measure_vs_arcs(m, b, center=center)["exit_measure"] == {b: 1.0}
    w = int(dual[np.argmin(np.hypot(*(m.positions[dual] - center).T))])
    with pytest.raises(KeyError):
        exit_measure_vs_arcs(m, w, center=center)  # a dual vertex is not on the primal network


def test_solve_dirichlet_rejects_non_finite_boundary_data():
    """NaN or inf boundary data, given by a dict or by a function that
    overflows, raises a ValueError naming the first such boundary vertex
    before any factorisation, not a residual-check failure."""
    m = odmap.rotated_grid("disk", 16)
    bdry, _ = m.boundary_vertices()
    for bad in (np.nan, np.inf):
        g = dict.fromkeys(bdry.tolist(), 0.0)
        g[int(bdry[9])] = g[int(bdry[5])] = bad
        with pytest.raises(ValueError, match=f"boundary value {bad} at vertex {bdry[5]} is not finite"):
            solve_dirichlet(m, g)
    # exp(x) overflows at the right of a disk of radius 1000
    big = odmap.OrthodiagonalMap(1000.0 * m.positions, m.primal_mask, m.faces)
    tf = CATALOG["exp_x_cos_y"]
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(tf(big.positions[bdry]))
        assert bad.any() and not bad.all()
        with pytest.raises(ValueError, match=f"at vertex {bdry[np.argmax(bad)]} is not finite"):
            solve_dirichlet(big, tf)
    assert m.primal_network()._grounded is None and big.primal_network()._grounded is None


@pytest.mark.parametrize("k", [3, 8, 16])
def test_exit_measure_arcs_match_per_label_loop(k):
    m = odmap.rotated_grid("disk", 24)
    for target, center, n_samples in (((0.0, 0.0), (0.0, 0.0), None),
                                      ((0.4, -0.3), (0.05, 0.1), None),
                                      ((-0.2, 0.5), (0.0, 0.0), 300)):
        out = exit_measure_vs_arcs(m, central_primal_vertex(m, target), k=k,
                                   n_samples=n_samples, seed=2, center=center)
        # the per-label binning the array code replaced, bit for bit
        arc = np.zeros(k)
        pos, c = m.positions, np.asarray(center, float)
        for label, p in out["exit_measure"].items():
            ang = np.arctan2(pos[label][1] - c[1], pos[label][0] - c[0]) % (2 * np.pi)
            arc[int(ang / (2 * np.pi / k)) % k] += p
        assert out["arcs"].tolist() == arc.tolist()
        assert out["tv"] == 0.5 * float(np.abs(arc - out["reference"]).sum())


def test_theorem_shape_scaling(grid16_square):
    tf = get_test_function("x2_minus_y2")
    dom = odmap.unit_square()
    s = theorem_shape(grid16_square, dom, tf, grid16_square.mesh_size(), 0.05)
    assert np.isfinite(s) and s > 0
