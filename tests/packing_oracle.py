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
    beta = (zeta.conjugate() * c_p).real
    rho = (1.0 - 2.0 * beta + abs(c_p) ** 2 - rho_p**2) / (2.0 * (1.0 + rho_p - beta))
    return (1.0 - rho) * zeta, rho


def layout_loop(tri, t):
    """Centres (complex) and radii of the packing with t = tanh(h / 2), one
    circle at a time in breadth-first face order, with the seed, first
    petal, closed forms and pivot rule of `pack_in_disk`."""
    n, faces, boundary = tri.n_vertices, tri.faces, tri.boundary_mask
    t = [float(v) for v in t]
    centers = np.full(n, np.nan + 0j, complex)
    radii = np.full(n, np.nan)
    anchors = np.full(n, np.nan + 0j, complex)
    placed = np.zeros(n, bool)
    steps = np.zeros(n, int)

    def place(v, c, rho, anchor):
        centers[v], radii[v], anchors[v], placed[v] = c, rho, anchor, True

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
    else:
        root = 0
        rho = 2.0 * np.sqrt(3.0) - 3.0
        for v, turn in zip(faces[0].tolist(), (-5 / 6, -1 / 6, 1 / 2)):
            zeta = np.exp(1j * np.pi * turn)
            place(v, (1.0 - rho) * zeta, rho, zeta)

    s = tri._sides
    inner = s.first[s.twin[s.first] >= 0]
    order = csgraph.breadth_first_order(edge_graph(len(faces), s.face[inner], s.face[s.twin[inner]]),
                                        root, directed=False, return_predecessors=False)
    _, first = np.unique(faces[order].ravel(), return_index=True)
    for i in np.sort(first).tolist():
        f = faces[order[i // 3]]
        r, p, q = (int(f[(i + j) % 3]) for j in range(3))
        if placed[r]:
            continue
        if boundary[p] and boundary[q]:
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
            steps[r] = max(steps[p], steps[q]) + 1
            continue
        sign = 1
        if boundary[p] or (not boundary[q] and steps[q] < steps[p]):
            p, q, sign = q, p, -1
        steps[r] = steps[p] + 1
        dr = (anchors[q] - anchors[p]) / (1.0 - anchors[p].conjugate() * anchors[q])
        dr *= np.exp(1j * sign * _angle(t[p], t[q], t[r])) / abs(dr)
        if boundary[r]:
            zeta = (dr + anchors[p]) / (1.0 + anchors[p].conjugate() * dr)
            zeta /= abs(zeta)
            place(r, *_horo_from_tangency(zeta, centers[p], radii[p]), zeta)
        else:
            w = (t[p] + t[r]) / (1.0 + t[p] * t[r]) * dr
            z = (w + anchors[p]) / (1.0 + anchors[p].conjugate() * w)
            place(r, *_euclid_from_hyp(z, t[r]), z)
    return centers, radii
