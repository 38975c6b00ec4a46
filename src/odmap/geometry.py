"""Small planar-geometry helpers used throughout the package.

Points are numpy arrays of shape (2,) (or stacks of shape (n, 2)); all
lengths are Euclidean.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import GeometryError


def signed_area(points: np.ndarray):
    """Shoelace signed area of a polygon given as an (n, 2) array, broadcast
    over any leading axes (an (m, n, 2) stack gives m areas)."""
    p = np.asarray(points, float)
    x, y = p[..., 0], p[..., 1]
    # row-times-column matmuls sum in the same order as np.dot; np.sum and
    # einsum do not, and the two shoelace terms cancel, so the last bits show
    xy = x[..., None, :] @ np.roll(y, -1, axis=-1)[..., :, None]
    yx = y[..., None, :] @ np.roll(x, -1, axis=-1)[..., :, None]
    return 0.5 * (xy - yx)[..., 0, 0]


def cross2(u, v):
    """z-component of u x v, broadcast over any leading axes."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def seg_points_distance(a, b, pts) -> np.ndarray:
    """Distances from points to segments ab, broadcast over any leading axes
    ((2,) ends and (n, 2) points give n distances; (s, 2) ends and (n, 1, 2)
    points give an (n, s) table)."""
    a = np.asarray(a, float)
    d = np.asarray(b, float) - a
    pts = np.asarray(pts, float)
    dx, dy = d[..., 0], d[..., 1]
    wx, wy = pts[..., 0] - a[..., 0], pts[..., 1] - a[..., 1]
    denom = (d[..., None, :] @ d[..., :, None])[..., 0, 0]  # rounds as d @ d does
    # elementwise, not w @ d: a matrix product may round differently with
    # the number of rows, and a point must get one distance in any batch.
    # A segment of length 0 has d = 0, so any t leaves the distance |w|
    t = np.clip((wx * dx + wy * dy) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
    return np.hypot(wx - t * dx, wy - t * dy)


_PAIRS = 1 << 14  # pairs per block of every table that _reduce_pairs builds


def _reduce_pairs(table, rows: int, cols: int, op, start) -> np.ndarray:
    """op.reduce along the columns of a rows x cols table built in blocks of at
    most _PAIRS pairs (all columns at once when they fit): table(i, j) is the
    block at row slice i and column slice j, and start is op's identity."""
    out = np.full(rows, start)
    width = max(1, min(cols, _PAIRS))
    height = max(1, _PAIRS // width)
    for j in range(0, cols, width):
        for i in range(0, rows, height):
            r, c = slice(i, i + height), slice(j, j + width)
            op(out[r], op.reduce(table(r, c), axis=1), out=out[r])
    return out


def nearest_segment_distance(a, b, pts) -> np.ndarray:
    """Distance from each row of pts to the nearest segment a[k] b[k].

    Exact: a segment within c of a point, c no less than any segment's
    length, has its bounding box's lower-left corner in the 4x4 grid cells
    of side c around the point's, so the least distance to the segments
    listed there is the true one wherever it is <= c (less 2^-30 c for
    rounding); other points take every segment, as do all points when the
    segments span under 4 cells a side.  Pair blocks hold at most _PAIRS."""
    a, b, pts = (np.asarray(v, float).reshape(-1, 2) for v in (a, b, pts))
    out, far, lo = np.full(len(pts), np.inf), np.arange(len(pts)), np.minimum(a, b)
    o = lo.min(0) if len(a) else 0.0
    span = float((np.maximum(a, b) - o).max(initial=0.0))
    # no more cells than segments and points, so a cell index rounds far below 2^-30 of a cell
    c = max(float(np.abs(b - a).max(initial=0.0)), span / np.sqrt(len(a) + len(pts) + 1))
    if len(pts) and 0 < 4 * c <= span:
        w = int(span // c) + 9  # cell (x, y), -4 <= x, y < w - 4, has key (x + 4) w + y + 4
        key = (np.floor((lo - o) / c).astype(int) + 4) @ [w, 1]
        order, edge = np.argsort(key, kind="stable"), np.append(0, np.cumsum(np.bincount(key, minlength=w * w)))
        g = np.fmin(np.fmax(np.floor((pts - o) / c), -2), w - 6).astype(int) + 2  # fmax takes NaN to -2
        row = ((g[:, :1] + np.arange(4)) * w + g[:, 1:]).ravel()  # each point's 4x4 cells are 4 runs of keys
        stop = edge[row + 4]
        ends = np.cumsum(stop - edge[row])
        shift = stop - ends  # pair t of run e is segment order[t + shift[e]]
        for s in range(0, int(ends[-1]), _PAIRS):
            t = np.arange(s, min(s + _PAIRS, ends[-1]))
            e = np.searchsorted(ends, t, "right")
            i, j = e // 4, order[t + shift[e]]
            d = seg_points_distance(np.take(a, j, 0), np.take(b, j, 0), np.take(pts, i, 0))
            run = np.flatnonzero(np.diff(i, prepend=-1))  # each point's pairs are consecutive
            out[i[run]] = np.minimum(out[i[run]], np.minimum.reduceat(d, run))
        far = np.flatnonzero(out > c * (1 - 2 ** -30))
    q = pts[far]
    out[far] = _reduce_pairs(lambda i, j: seg_points_distance(a[j], b[j], q[i, None]), len(q), len(a), np.minimum, np.inf)
    return out


def segments_intersect(a, b, c, d, include_endpoints: bool = True):
    """Whether segments ab and cd meet, broadcast over any leading axes (a
    bool for one pair of segments, an array of flags for stacks)."""
    a, b, c, d = (np.asarray(p, float) for p in (a, b, c, d))
    d1 = cross2(b - a, c - a)
    d2 = cross2(b - a, d - a)
    d3 = cross2(d - c, a - c)
    d4 = cross2(d - c, b - c)
    hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0)) & (d1 != d2) & (d3 != d4)
    if include_endpoints:

        def on_seg(p, q, r):
            lo, hi = np.minimum(p, q), np.maximum(p, q)
            return (cross2(q - p, r - p) == 0.0) & ((lo <= r) & (r <= hi)).all(-1)

        hit = hit | on_seg(a, b, c) | on_seg(a, b, d) | on_seg(c, d, a) | on_seg(c, d, b)
    return bool(hit) if hit.ndim == 0 else hit


def incircle(a, b, c):
    """Incenter and inradius of triangle abc, broadcast over any leading axes
    (three (m, 2) stacks give m centres and m radii).

    Raises GeometryError if any triangle is (near-)collinear.
    """
    a, b, c = (np.asarray(p, float) for p in (a, b, c))
    la, lb, lc = (np.hypot(d[..., 0], d[..., 1]) for d in (c - b, a - c, b - a))
    s = la + lb + lc
    area2 = np.abs(cross2(b - a, c - a))
    if np.any((s == 0.0) | (area2 <= 1e-14 * np.maximum(np.maximum(la, lb), lc) ** 2)):
        raise GeometryError("collinear or degenerate triangle has no incircle")
    center = (la[..., None] * a + lb[..., None] * b + lc[..., None] * c) / s[..., None]
    radius = area2 / s
    return center, radius


def max_distance(points: np.ndarray) -> float:
    """Largest distance between two of the points, over all pairs."""
    x, y = np.asarray(points, float).reshape(-1, 2).T
    d2 = _reduce_pairs(lambda i, j: (x[i, None] - x[j]) ** 2 + (y[i, None] - y[j]) ** 2,
                       len(x), len(x), np.maximum, 0.0)
    return float(np.sqrt(d2.max(initial=0.0)))


# ---------------------------------------------------------------------------
# quadrature over orthodiagonal quads


def interior_diagonal(quad: np.ndarray) -> np.ndarray:
    """Whether each simple CCW quad splits along diagonal 0-2 (True) or only along 1-3 (False),
    broadcast over leading axes, by one signed_area call over its triangles 012, 023, 123 and 130;
    a GeometryError names the first quad with neither diagonal inside."""
    q = np.asarray(quad, float)
    pos = signed_area(q[..., [[0, 1, 2], [0, 2, 3], [1, 2, 3], [1, 3, 0]], :]) > 0
    ok_a = pos[..., 0] & pos[..., 1]
    bad = np.flatnonzero(~(ok_a | (pos[..., 2] & pos[..., 3])))
    if bad.size:
        raise GeometryError(f"{'quad' if q.ndim == 2 else f'face {bad[0]}'} is not a simple CCW polygon")
    return ok_a


def split_quad(quad: np.ndarray):
    """Split a simple CCW quad into two triangles along an interior diagonal,
    broadcast over any leading axes ((m, 4, 2) quads give two (m, 3, 2)
    stacks); a GeometryError names the first quad that has no such diagonal.
    """
    q = np.asarray(quad, float)
    a = interior_diagonal(q)[..., None, None]
    return np.where(a, q[..., [0, 1, 2], :], q[..., [1, 2, 3], :]), np.where(a, q[..., [0, 2, 3], :], q[..., [1, 3, 0], :])


@functools.cache
def gauss_triangle(n: int):
    """Tensor Gauss-Legendre rule on the reference triangle via the Duffy map.

    Returns (points (k, 2) in barycentric-free reference coords, weights (k,)),
    k = n * n, computed once per n and read-only.
    Exact for polynomials of degree ~2n-2 on the triangle.
    """
    x, wx = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wx
    U, V = np.meshgrid(u, u, indexing="ij")
    W = np.outer(wu, wu) * (1.0 - U)
    px = U
    py = V * (1.0 - U)
    ref, w = np.column_stack([px.ravel(), py.ravel()]), W.ravel()
    ref.flags.writeable = w.flags.writeable = False
    return ref, w


# integrand points per call of f: bounds the temporaries, not the result
_QUAD_POINTS = 1 << 14


def integrate_over_quad(f, quad: np.ndarray, tol: float = 1e-10):
    """Integrate f over orthodiagonal quads, doubling the rule until stable.

    A (4, 2) quad gives a float, an (..., 4, 2) stack one value per quad.
    Each quad is split along an interior diagonal and integrated with the
    n x n Duffy-Gauss rule on both triangles for n = 4, 8, 16, ... until two
    orders agree to tol (1 + |val|) or n exceeds 64.  The quads still open
    share one cached rule per order; f maps (N, 2) points to N values and
    gets whole quads, at most _QUAD_POINTS points a call unless one quad
    needs more, so each value equals that of integrating its quad alone.
    """
    q = np.asarray(quad, float)
    tris = np.stack(split_quad(q), -3).reshape(-1, 2, 3, 2)
    val = np.full(len(tris), np.nan)
    todo = np.arange(len(val))
    n = 4
    while todo.size:
        ref, w = gauss_triangle(n)
        step = max(1, _QUAD_POINTS // (2 * len(w)))
        new = np.empty(todo.size)
        for s in range(0, todo.size, step):
            a, b, c = (tris[todo[s:s + step], :, i, None, :] for i in range(3))
            pts = a + ref[:, 0:1] * (b - a) + ref[:, 1:2] * (c - a)
            vals = np.asarray(f(pts.reshape(-1, 2)), float).reshape(len(a), 2, 1, -1)
            # row-times-column matmul: the same sum order as w @ vals per triangle
            part = np.abs(cross2(b - a, c - a))[..., 0] * (vals @ w[:, None])[..., 0, 0]
            new[s:s + step] = part[:, 0] + part[:, 1]
        done = np.abs(new - val[todo]) <= tol * (1.0 + np.abs(new))
        val[todo] = new
        if n > 64:
            break
        todo = todo[~done]
        n *= 2
    return float(val[0]) if q.ndim == 2 else val.reshape(q.shape[:-2])
