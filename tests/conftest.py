import numpy as np
import pytest

import odmap


@pytest.fixture
def diamond():
    return odmap.diamond_map()


@pytest.fixture(scope="session")
def grid16_square():
    return odmap.rotated_grid("square", 16)


@pytest.fixture(scope="session")
def grid32_centered():
    """Rotated grid on the unit square, translated so the center is at 0."""
    g = odmap.rotated_grid("square", 32)
    return odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces)


@pytest.fixture(scope="session")
def packed500():
    """500-vertex random Delaunay triangulation packed in the disk."""
    tri = odmap.random_delaunay_triangulation(500, seed=1)
    packing = odmap.pack_in_disk(tri, tol=1e-7)
    omap = odmap.orthodiagonal_from_packing(tri, packing)
    return tri, packing, omap


def random_network(rng, max_edges=200):
    """Random connected multigraph with log-uniform conductances."""
    n = int(rng.integers(5, 40))
    tails = []
    heads = []
    for v in range(1, n):
        tails.append(int(rng.integers(0, v)))
        heads.append(v)
    extra = int(rng.integers(0, min(max_edges - (n - 1), 3 * n)))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        tails.append(int(a))
        heads.append(int(b))
    m = len(tails)
    c = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m))
    return odmap.Network(np.arange(n), np.array(tails), np.array(heads), c)


def central_primal_vertex(omap, target=(0.0, 0.0)):
    pv = omap.primal_vertices
    pos = omap.positions[pv]
    t = np.asarray(target, float)
    return int(pv[np.argmin(np.hypot(pos[:, 0] - t[0], pos[:, 1] - t[1]))])


@pytest.fixture
def concave_fan():
    """Three quads around an interior vertex x whose first face is a dart
    with the reflex corner at x itself (interior angle > pi there), so the
    dual edge must bend through the primal midpoint and its angular
    increment about x differs from the straight chord's by a full turn."""
    pts = np.array([
        [0.0, 0.0],      # 0 x (primal, interior, reflex corner of face 0)
        [-0.5, 0.0],     # 1 far primal corner of the dart
        [0.64, -0.24],   # 2 primal
        [0.64, 0.24],    # 3 primal
        [1.0, 0.8],      # 4 dual w1
        [1.0, -0.8],     # 5 dual w2
        [1.3, 0.0],      # 6 dual w3
    ])
    primal = np.array([1, 1, 1, 1, 0, 0, 0], bool)
    faces = np.array([
        [0, 4, 1, 5],    # dart: covers the angle sector through 180 degrees
        [0, 5, 2, 6],
        [0, 6, 3, 4],
    ])
    return odmap.OrthodiagonalMap(pts, primal, faces)


def segments_intersect_scalar(a, b, c, d, include_endpoints=True):
    """One pair of segments at a time (the oracle for the broadcast
    geometry.segments_intersect)."""
    a, b, c, d = (np.asarray(p, float) for p in (a, b, c, d))

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    d1 = cross(b - a, c - a)
    d2 = cross(b - a, d - a)
    d3 = cross(d - c, a - c)
    d4 = cross(d - c, b - c)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return True
    if not include_endpoints:
        return False

    def on_seg(p, q, r):
        return (
            cross(q - p, r - p) == 0.0
            and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
        )

    return on_seg(a, b, c) or on_seg(a, b, d) or on_seg(c, d, a) or on_seg(c, d, b)


def coned(tri):
    """The sphere map of a triangulation plus one apex joined to its boundary cycle."""
    apex = tri.n_vertices
    cyc = tri.boundary_cycle
    cone = [[cyc[k], cyc[(k + 1) % len(cyc)], apex] for k in range(len(cyc))]
    return odmap.PlanarMap3C(apex + 1, [list(map(int, f)) for f in tri.faces] + cone)


def closed(tri):
    """The triangulation with its boundary cycle as the outer face."""
    return odmap.PlanarMap3C(tri.n_vertices,
                             [list(map(int, f)) for f in tri.faces] + [tri.boundary_cycle])


def flip_chain(tri, flips, seed):
    """The triangulation after `flips` proposals of a random edge-flip chain.

    Each proposal draws a side k = a -> b of face (a, b, c) from the side
    table; where its twin b -> a lies on face (b, a, d), the edge ab becomes
    cd, in faces (c, a, d) and (d, b, c) in the same two rows.  A proposal is
    refused on a boundary side, where c and d are adjacent already, and where
    a or b has degree 3.  The faces and twins are updated in place, side
    3 f + j running from faces[f, j] to faces[f, (j + 1) % 3]; positions are
    dropped, since they mean nothing after a flip.
    """
    faces, twin = tri.faces.copy(), tri._sides.twin.copy()
    tail = faces.reshape(-1)  # a view: the side table's tails as the faces change
    degree = np.bincount(tri.edges.ravel(), minlength=tri.n_vertices)
    for k in np.random.default_rng(seed).integers(twin.size, size=flips).tolist():
        k2 = int(twin[k])
        if k2 < 0:
            continue
        f1, j1, f2, j2 = k // 3, k % 3, k2 // 3, k2 % 3
        a, b, c = faces[f1, j1], faces[f1, (j1 + 1) % 3], faces[f1, (j1 + 2) % 3]
        d = faces[f2, (j2 + 2) % 3]
        # every edge at c lies on a face with a side out of c
        if min(degree[a], degree[b]) <= 3 or (faces[np.flatnonzero(tail == c) // 3] == d).any():
            continue
        # the quad's sides b -> c, c -> a, a -> d, d -> b keep their twins
        outer = twin[[3 * f1 + (j1 + 1) % 3, 3 * f1 + (j1 + 2) % 3, 3 * f2 + (j2 + 1) % 3, 3 * f2 + (j2 + 2) % 3]]
        faces[f1], faces[f2] = (c, a, d), (d, b, c)
        new = np.array([3 * f2 + 1, 3 * f1, 3 * f1 + 1, 3 * f2])  # b -> c, c -> a, a -> d, d -> b now
        twin[new] = outer
        twin[outer[outer >= 0]] = new[outer >= 0]
        twin[3 * f1 + 2], twin[3 * f2 + 2] = 3 * f2 + 2, 3 * f1 + 2  # d -> c and c -> d
        degree[[a, b]] -= 1
        degree[[c, d]] += 1
    flipped = odmap.packing.Triangulation(tri.n_vertices, faces)
    assert np.array_equal(flipped._sides.twin, twin)  # the table the flips kept is the faces' own
    return flipped
