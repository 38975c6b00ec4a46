"""Oracles for the in-disk packer: the radius solve as it was in x =
exp(-2h), a Newton solve in u = log x, and a layout that places one circle
at a time with scalar arithmetic.  Tests compare `pack_in_disk`'s solve in
t = tanh(h / 2) and its layout in array passes against them.  Also the two
smallest triangulations the packing tests use."""
import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from odmap.network import edge_graph
from odmap.packing import Triangulation


def single_interior_triangulation() -> Triangulation:
    """Three boundary vertices around one interior vertex of degree 3."""
    faces = np.array([[0, 1, 3], [1, 2, 3], [2, 0, 3]])
    return Triangulation(4, faces).validate()


def bare_triangle_triangulation() -> Triangulation:
    return Triangulation(3, np.array([[0, 1, 2]])).validate()


def angles_x(xp, xa, xb):
    """Angle at circle p inside tangent triples (p, a, b), in x."""
    num = xp * (1.0 - xa) * (1.0 - xb)
    den = (1.0 - xp * xa) * (1.0 - xp * xb)
    return 2.0 * np.arcsin(np.sqrt(np.clip(num / den, 0.0, 1.0)))


def solve_x(tri, angle_tol):
    """x-parameters with angle sum 2 pi at every interior vertex (x = 0 on
    the boundary): Newton in log x from x = 1/2, one `splu` per step, each
    step scaled to length at most 2 and halved until ||F||_2 falls."""
    boundary = tri.boundary_mask
    x = np.where(boundary, 0.0, 0.5)
    if boundary.all():
        return x
    corners = np.concatenate([tri.faces, tri.faces[:, [1, 2, 0]], tri.faces[:, [2, 0, 1]]])
    v, a, b = corners[~boundary[corners[:, 0]]].T
    inner = np.flatnonzero(~boundary)
    slot = np.cumsum(~boundary) - 1

    def defects(x):
        return np.bincount(slot[v], angles_x(x[v], x[a], x[b]), inner.size) - 2.0 * np.pi

    def jacobian(x):
        xp = x[v]
        g = np.minimum(xp * (1.0 - x[a]) * (1.0 - x[b]) / ((1.0 - xp * x[a]) * (1.0 - xp * x[b])),
                       1.0 - 1e-15)
        pref = np.sqrt(g / (1.0 - g))
        rows, cols = [slot[v]], [slot[v]]
        data = [pref * (1.0 + xp * x[a] / (1.0 - xp * x[a]) + xp * x[b] / (1.0 - xp * x[b]))]
        for w in (a, b):
            xw, keep = x[w], ~boundary[w]
            rows.append(slot[v[keep]])
            cols.append(slot[w[keep]])
            data.append((pref * (xp * xw / (1.0 - xp * xw) - xw / (1.0 - xw)))[keep])
        return sp.csc_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(inner.size, inner.size))

    F = defects(x)
    for _ in range(100):
        if np.abs(F).max() < angle_tol:
            return x
        du = splu(jacobian(x), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True}).solve(-F)
        du *= min(1.0, 2.0 / np.abs(du).max())
        norm, step = np.linalg.norm(F), 1.0
        for _ in range(40):
            trial = x.copy()
            trial[inner] = np.clip(x[inner] * np.exp(step * du), 1e-15, 1.0 - 1e-15)
            F_trial = defects(trial)
            if np.linalg.norm(F_trial) < norm:
                break
            step *= 0.5
        else:
            raise RuntimeError("x solve stalled")
        x, F = trial, F_trial
    raise RuntimeError("x solve did not converge")


def t_of_x(x):
    """tanh(h / 2) from x = exp(-2h)."""
    s = np.sqrt(x)
    return (1.0 - s) / (1.0 + s)


def _angle(tp, ta, tb):
    """Angle at circle p inside the tangent triple (p, a, b), in t."""
    s, q = ta + tb, ta * tb
    return 2.0 * np.arcsin(np.sqrt(min(1.0, (1.0 - tp * tp) ** 2 * q
                                       / ((tp + ta) * (tp + tb) * (1.0 + tp * ta) * (1.0 + tp * tb)))))


def _euclid_from_hyp(z, t):
    s2 = abs(z) ** 2
    den = 1.0 - s2 * t * t
    return z * (1.0 - t * t) / den, t * (1.0 - s2) / den


def _horo_from_tangency(zeta, c_p, rho_p):
    d = zeta - c_p
    rho = (d.real**2 + d.imag**2 - rho_p**2) / (2.0 * ((zeta.conjugate() * d).real + rho_p))
    return (1.0 - rho) * zeta, rho


def layout_loop(tri, t):
    """Centres (complex) and radii of the packing with t = tanh(h / 2), one
    circle at a time, with the seed, first petal, closed forms, pivot and
    reference rule of `pack_in_disk`.  Each generation places every unplaced
    neighbour of the interior circles the one before placed, from its lowest
    side p -> r out of them, at the kite angles about p summed one at a time
    from p's lowest side to p -> r, less the same sum to the side from p to
    the circle p was placed from.  When no such circle is left, a generation
    places each circle whose first face in breadth-first face order has its
    two other corners placed, from those two horocycles."""
    n, faces, boundary = tri.n_vertices, tri.faces, tri.boundary_mask
    s = tri._sides
    tail, head, nxt, twin = (x.tolist() for x in (s.tail, s.head, s.nxt, s.twin))
    t = [float(v) for v in t]
    centers = np.full(n, np.nan + 0j, complex)
    radii = np.full(n, np.nan)
    anchors = np.full(n, np.nan + 0j, complex)
    placed = np.zeros(n, bool)
    ref = {}  # the side from each placed interior circle to the one it was placed from
    out = [[] for _ in range(n)]  # the sides out of each vertex, ascending
    for k, v in enumerate(tail):
        out[v].append(k)

    def place(v, c, rho, anchor):
        centers[v], radii[v], anchors[v], placed[v] = c, rho, anchor, True

    def summed(p):
        """The kite angles about p summed counterclockwise from its lowest side, by side."""
        cum, total, k = {}, 0.0, out[p][0]
        while k not in cum:
            cum[k] = total
            total += _angle(t[p], t[head[k]], t[head[nxt[k]]])
            k = twin[nxt[nxt[k]]]
        return cum

    layer = []
    interior_idx = np.flatnonzero(~boundary)
    if interior_idx.size:
        dist = csgraph.dijkstra(tri.graph, directed=False, indices=np.flatnonzero(boundary),
                                unweighted=True, min_only=True)
        seed = int(interior_idx[np.argmax(dist[interior_idx])])
        place(seed, 0j, t[seed], 0j)
        root, k = divmod(int(np.argmax(faces.ravel() == seed)), 3)
        q = int(faces[root, (k + 1) % 3])
        if boundary[q]:
            rho = (1.0 - radii[seed]) / 2.0
            place(q, complex(1.0 - rho), rho, 1 + 0j)
        else:
            z = complex((t[seed] + t[q]) / (1.0 + t[seed] * t[q]))
            place(q, *_euclid_from_hyp(z, t[q]), z)
        ref[seed], ref[q] = 3 * root + k, twin[3 * root + k]
        layer = [seed] + ([] if boundary[q] else [q])
    else:
        root = 0
        rho = 2.0 * np.sqrt(3.0) - 3.0
        for v, turn in zip(faces[0].tolist(), (-5 / 6, -1 / 6, 1 / 2)):
            zeta = np.exp(1j * np.pi * turn)
            place(v, (1.0 - rho) * zeta, rho, zeta)

    s_inner = s.first[s.twin[s.first] >= 0]
    order = csgraph.breadth_first_order(edge_graph(len(faces), s.face[s_inner], s.face[s.twin[s_inner]]),
                                        root, directed=False, return_predecessors=False)
    _, first = np.unique(faces[order].ravel(), return_index=True)
    first_side = sorted((3 * order[i // 3] + i % 3).item() for i in first)  # r -> p on r's first face
    while not placed.all():
        placed_now = []
        if layer:
            for k in sorted(k for p in layer for k in out[p]):
                p, r = tail[k], head[k]
                if placed[r]:
                    continue
                cum = summed(p)
                ap, ac = anchors[p], anchors[head[ref[p]]]
                dr = (ac - ap) / (1.0 - ap.conjugate() * ac)
                dr *= np.exp(1j * (cum[k] - cum[ref[p]])) / abs(dr)
                if boundary[r]:
                    zeta = (dr + ap) / (1.0 + ap.conjugate() * dr)
                    zeta /= abs(zeta)
                    place(r, *_horo_from_tangency(zeta, centers[p], radii[p]), zeta)
                else:
                    w = (t[p] + t[r]) / (1.0 + t[p] * t[r]) * dr
                    z = (w + ap) / (1.0 + ap.conjugate() * w)
                    place(r, *_euclid_from_hyp(z, t[r]), z)
                ref[r] = twin[k]
                placed_now.append(r)
        else:
            ready = [k for k in first_side
                     if not placed[tail[k]] and placed[head[k]] and placed[head[nxt[k]]]]
            if not ready:
                break
            for k in ready:
                r, p, q = tail[k], head[k], head[nxt[k]]
                zeta = anchors[p]
                H = (1.0 - radii[p]) / radii[p]
                with np.errstate(divide="ignore", invalid="ignore"):
                    X_q = (1j * (zeta + anchors[q]) / (zeta - anchors[q])).real
                    w = X_q + H * 2.0 * np.sqrt(t[r]) / (1.0 + t[r]) + 1j * H * (1.0 - t[r]) / (1.0 + t[r])
                    z = zeta * (w - 1j) / (w + 1j)
                    if boundary[r]:
                        z /= abs(z)
                        rho = (1.0 - radii[p]) / (1.0 + radii[p] * w.real**2)
                        c = (1.0 - rho) * z
                    else:
                        c, rho = _euclid_from_hyp(z, t[r])
                place(r, c, rho, z)
                ref[r] = k
                placed_now.append(r)
        layer = [r for r in placed_now if not boundary[r]]
    return centers, radii
