"""The batched 2D face quadrature against the per-face doubling loop it
replaced, and energy_pair_check's boundary line integral against the 2D
quadrature summed in face order."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odmap
from odmap import geometry
from odmap.dirichlet import CATALOG, energy_pair_check, get_test_function
from odmap.errors import GeometryError
from odmap.generators import two_diamonds_sharing_vertex
from odmap.geometry import cross2, gauss_triangle, integrate_over_quad, signed_area, split_quad

# -- reference: one quad at a time, a fresh rule per triangle and order -------


def _rule_oracle(n):
    x, wx = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * wx
    U, V = np.meshgrid(u, u, indexing="ij")
    return np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()]), (np.outer(wu, wu) * (1.0 - U)).ravel()


def _split_oracle(quad):
    v1, w1, v2, w2 = quad
    if signed_area(np.array([v1, w1, v2])) > 0 and signed_area(np.array([v1, v2, w2])) > 0:
        return np.array([v1, w1, v2]), np.array([v1, v2, w2])
    if signed_area(np.array([w1, v2, w2])) > 0 and signed_area(np.array([w1, w2, v1])) > 0:
        return np.array([w1, v2, w2]), np.array([w1, w2, v1])
    raise GeometryError("quad is not a simple CCW polygon")


def _triangle_oracle(f, tri, n):
    a, b, c = tri
    ref, w = _rule_oracle(n)
    pts = a + ref[:, 0:1] * (b - a) + ref[:, 1:2] * (c - a)
    return float(abs(cross2(b - a, c - a)) * (w @ f(pts)))


def _quad_oracle(f, quad, tol=1e-10, n0=4):
    t1, t2 = _split_oracle(quad)
    prev = None
    n = n0
    while True:
        val = _triangle_oracle(f, t1, n) + _triangle_oracle(f, t2, n)
        if prev is not None and abs(val - prev) <= tol * (1.0 + abs(val)):
            return val
        if n > 64:
            return val
        prev = val
        n *= 2


def _grad_sq(tf):
    def f(pts):
        g = tf.grad(pts)
        return g[:, 0] ** 2 + g[:, 1] ** 2
    return f


def _map(kind, size, seed):
    if kind == "packed":
        tri = odmap.random_delaunay_triangulation(size + 10, seed=seed)
        return odmap.orthodiagonal_from_packing(tri, odmap.pack_in_disk(tri, tol=1e-7))
    m = odmap.rotated_grid("disk" if kind == "disk" else "square", size)
    return odmap.perturbed(m, 0.3, seed=seed) if kind == "perturbed" else m


def _assert_boundary_integral_agrees(m, tf):
    """energy_pair_check's line integral equals the 2D rule at tol 1e-10,
    summed in face order, to 1e-12 (1 + |I|)."""
    want = sum(integrate_over_quad(_grad_sq(tf), m.positions[m.faces], tol=1e-10).tolist())
    got = energy_pair_check(m, tf)["integral"]
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)


@given(kind=st.sampled_from(["square", "disk", "perturbed", "packed"]), size=st.integers(3, 9),
       seed=st.integers(0, 10_000), name=st.sampled_from(sorted(CATALOG)),
       tol=st.sampled_from([1e-10, 1e-6]))
@settings(max_examples=30, deadline=None)
def test_batched_quadrature_matches_per_face_loop(kind, size, seed, name, tol):
    m = _map(kind, size, seed)
    tf = get_test_function(name)
    f = _grad_sq(tf)
    want = [_quad_oracle(f, q, tol) for q in m.positions[m.faces]]
    got = integrate_over_quad(f, m.positions[m.faces], tol=tol)
    # bit for bit, per face
    assert got.tolist() == want
    _assert_boundary_integral_agrees(m, tf)


def test_stack_over_several_chunks_equals_single_quads():
    m = odmap.perturbed(odmap.rotated_grid("square", 48), 0.3, seed=4)
    quads = m.positions[m.faces]
    f = _grad_sq(get_test_function("exp_x_cos_y"))
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return f(pts)

    got = integrate_over_quad(counted, quads)
    # 2 * 16 points per quad at the first order: the stack spans several calls
    assert len(quads) * 32 > 2 * geometry._QUAD_POINTS
    assert max(sizes) <= geometry._QUAD_POINTS
    assert got.tolist() == [integrate_over_quad(f, q) for q in quads]


def test_output_shape_follows_the_leading_axes():
    m = odmap.rotated_grid("square", 6)
    quads = m.positions[m.faces][:6]
    f = _grad_sq(get_test_function("re_z3"))
    one = integrate_over_quad(f, quads[0])
    assert type(one) is float
    assert integrate_over_quad(f, quads.reshape(2, 3, 4, 2)).shape == (2, 3)
    assert integrate_over_quad(f, quads[:0]).shape == (0,)


def test_gauss_rule_is_cached_and_read_only():
    ref, w = gauss_triangle(8)
    assert gauss_triangle(8)[1] is w
    want_ref, want_w = _rule_oracle(8)
    assert np.array_equal(ref, want_ref) and np.array_equal(w, want_w)
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError):
        ref[0, 0] = 1.0


def test_split_quad_names_the_bad_face():
    m = odmap.rotated_grid("square", 8)
    quads = m.positions[m.faces]
    assert all(np.array_equal(t, s) for t, s in zip(split_quad(quads[3]), _split_oracle(quads[3])))
    with pytest.raises(GeometryError, match=r"^quad is not a simple CCW polygon$"):
        split_quad(quads[3][::-1])
    bad = quads.copy()
    bad[17] = bad[17][::-1]
    bad[20] = bad[20][::-1]
    with pytest.raises(GeometryError, match=r"^face 17 is not a simple CCW polygon$"):
        split_quad(bad)
    with pytest.raises(GeometryError, match=r"^face 17 is not a simple CCW polygon$"):
        integrate_over_quad(_grad_sq(get_test_function("xy")), bad)


def _face_listed_twice():
    g = odmap.rotated_grid("square", 6)
    return odmap.OrthodiagonalMap(g.positions, g.primal_mask, np.vstack([g.faces, g.faces[7:8]]))


@pytest.mark.parametrize("m", [two_diamonds_sharing_vertex(), _face_listed_twice()],
                         ids=["pinch-point", "edges-with-three-faces"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_boundary_integral_on_maps_that_fail_validation(m, name):
    # only sides running both ways along an edge cancel, so the line integral
    # still equals the face-by-face sum
    _assert_boundary_integral_agrees(m, get_test_function(name))


def test_boundary_integral_raises_its_order_on_a_large_map():
    g = odmap.rotated_grid("square", 8)
    big = odmap.OrthodiagonalMap(6.0 * g.positions, g.primal_mask, g.faces)
    orders = []

    def exp(z):
        if z.ndim == 2:  # (sides, points per side)
            orders.append(z.shape[1])
        return np.exp(z)

    energy_pair_check(big, odmap.dirichlet.TestFunction("exp_x_cos_y", exp, np.exp, np.exp))
    assert max(orders) > 8
    _assert_boundary_integral_agrees(big, get_test_function("exp_x_cos_y"))


def test_energy_pair_check_names_a_reversed_face():
    g = odmap.rotated_grid("square", 8)
    faces = g.faces.copy()
    faces[5] = faces[5][[0, 3, 2, 1]]  # clockwise, primal corners kept in place
    with pytest.raises(GeometryError, match=r"^face 5 is not a simple CCW polygon$"):
        energy_pair_check(odmap.OrthodiagonalMap(g.positions, g.primal_mask, faces),
                          get_test_function("xy"))


def test_boundary_integral_of_a_kink_raises():
    # |x - 0.06| kinks inside the boundary sides that join x = 0 and x = 0.125,
    # where Gauss-Legendre converges like 1 / n^2
    kink = odmap.dirichlet.TestFunction("kink", lambda z: np.abs(z.real - 0.06) + 0j,
                                        np.ones_like, np.zeros_like)
    with pytest.raises(GeometryError, match="did not converge with 256 points a side"):
        energy_pair_check(odmap.rotated_grid("square", 8), kink)


def test_boundary_integral_needs_three_agreeing_orders():
    # across the kinks of |x - 0.123| on the boundary of the disk-8 grid the
    # 4- and 8-point rules agree exactly, at -0.40025, while more points drift
    # towards -0.4002420; two agreeing orders accepted the wrong value
    kink = odmap.dirichlet.TestFunction("kink", lambda z: np.abs(z.real - 0.123) + 0j,
                                        np.ones_like, np.zeros_like)
    try:
        integral = energy_pair_check(odmap.rotated_grid("disk", 8), kink)["integral"]
    except GeometryError as exc:
        assert "did not converge with 256 points a side" in str(exc)
    else:
        assert abs(integral + 0.4002420) < 1e-7
