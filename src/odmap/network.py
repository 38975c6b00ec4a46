"""Electric networks: flows, energies, harmonic extension, and the
star/cycle calculus.

A network is a finite weighted multigraph.  Edges are stored with a fixed
reference orientation (tail -> head); an :class:`EdgeField` holds one value
per edge under that orientation and is antisymmetric by convention, i.e. its
value on the reversed edge is the negation.  The inner product is

    (theta, phi)_r = sum_e r(e) theta(e) phi(e)      (sum over undirected edges)

which matches the half-sum over directed edges.  Current is oriented from
lower to higher voltage: the discrete gradient is c df(e) = c(e) [f(head) -
f(tail)].
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .errors import DisconnectedNetworkError, StructuralError


class Network:
    """Weighted multigraph with positive conductances.

    ``labels`` are caller-facing integer vertex names (every caller labels by
    map vertex index); internally vertices are dense 0..n-1, found by one
    gather from an index whose memory follows the span max - min of the
    labels.  Parallel edges are kept distinct.  Immutable after construction.
    """

    def __init__(self, labels, tails, heads, conductances):
        self.labels = np.asarray(labels).reshape(-1)
        keys = self.labels.astype(int)  # label k at slot k - _lo; -1 in slot 0, the last and the gaps
        self._lo = int(keys.min()) - 1 if keys.size else 0
        self._index = np.full(int(keys.max(initial=0)) - self._lo + 2, -1)
        self._index[keys - self._lo] = np.arange(keys.size)
        if np.count_nonzero(self._index >= 0) < keys.size:
            raise StructuralError("duplicate vertex labels")
        self.tails = self.indices_of(np.asarray(tails).reshape(-1))
        self.heads = self.indices_of(np.asarray(heads).reshape(-1))
        self.conductances = np.asarray(conductances, float).reshape(-1)
        if not (len(self.tails) == len(self.heads) == len(self.conductances)):
            raise StructuralError("edge arrays disagree in length")
        if np.any(self.conductances <= 0) or not np.all(np.isfinite(self.conductances)):
            raise StructuralError("conductances must be positive and finite")
        if np.any(self.tails == self.heads):
            raise StructuralError("self-loops are not supported")
        # the one cached interior solver, and the interior in an inherited factor's order (_InteriorSolver)
        self._grounded = self._elimination = None

    # -- basics -------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

    def index_of(self, label) -> int:
        return int(self.indices_of([label])[0])

    def indices_of(self, labels) -> np.ndarray:
        """Dense indices of an iterable of labels; KeyError on an unknown one."""
        want = np.asarray(labels if isinstance(labels, np.ndarray) else list(labels)).astype(int)
        idx = self._index.take(want - self._lo, mode="clip")  # a label off the span clips to a -1 slot
        if (idx < 0).any():
            raise KeyError(int(want[np.argmax(idx < 0)]))
        return idx

    @property
    def tails_labels(self) -> np.ndarray:
        return self.labels[self.tails]

    @property
    def heads_labels(self) -> np.ndarray:
        return self.labels[self.heads]

    @property
    def resistances(self) -> np.ndarray:
        return 1.0 / self.conductances

    @cached_property
    def pi(self) -> np.ndarray:
        """Stationary measure pi(x) = sum of conductances at x."""
        out = np.zeros(self.n_vertices)
        np.add.at(out, self.tails, self.conductances)
        np.add.at(out, self.heads, self.conductances)
        return out

    @cached_property
    def is_connected(self) -> bool:
        return csgraph.connected_components(self.laplacian, directed=False,
                                            return_labels=False) <= 1

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        t, h, c = self.tails, self.heads, self.conductances
        i, j = np.concatenate([t, h, t, h]), np.concatenate([t, h, h, t])
        return sp.csr_matrix((np.concatenate([c, c, -c, -c]), (i, j)), shape=(self.n_vertices,) * 2)

    def grounded(self, boundary_idx) -> "_InteriorSolver":
        """The solver for L[I][:, I], I the vertices not in ``boundary_idx``.  One solver is
        cached, keyed by the sorted boundary indices (any order finds it); another set replaces it."""
        boundary = np.asarray(boundary_idx)
        if not (boundary[1:] > boundary[:-1]).all():
            boundary = np.unique(boundary)
        if self._grounded is None or not np.array_equal(self._grounded.boundary, boundary):
            if not self.is_connected:
                raise DisconnectedNetworkError("interior solve requires a connected network")
            self._grounded = _InteriorSolver(self, boundary)
        return self._grounded

    # -- fields ----------------------------------------------------------------

    def field(self, values) -> "EdgeField":
        return EdgeField(self, np.asarray(values, float))

    def star(self, label) -> "EdgeField":
        """The star field at a vertex: sum of c(e) chi^e over edges leaving it."""
        x = self.index_of(label)
        v = np.zeros(self.n_edges)
        v[self.tails == x] += self.conductances[self.tails == x]
        v[self.heads == x] -= self.conductances[self.heads == x]
        return EdgeField(self, v)


def edge_graph(n: int, a, b) -> sp.csr_matrix:
    """n x n matrix with a nonzero at each (a[i], b[i]): the graph form that
    the ``scipy.sparse.csgraph`` routines take."""
    return sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n))


@dataclass
class EdgeField:
    """Antisymmetric edge function, stored under the reference orientation."""

    network: Network
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float).reshape(-1)
        if len(self.values) != self.network.n_edges:
            raise StructuralError("field length does not match edge count")

    def __add__(self, other):
        return EdgeField(self.network, self.values + other.values)

    def __sub__(self, other):
        return EdgeField(self.network, self.values - other.values)

    def __mul__(self, s: float):
        return EdgeField(self.network, self.values * s)

    __rmul__ = __mul__

    def __neg__(self):
        return EdgeField(self.network, -self.values)

    def divergence(self) -> np.ndarray:
        """Net outflow at each vertex (dense indexing)."""
        out = np.zeros(self.network.n_vertices)
        np.add.at(out, self.network.tails, self.values)
        np.add.at(out, self.network.heads, -self.values)
        return out

    def to_json_dict(self) -> dict:
        return {"edges": [{"id": int(i), "value": float(v)} for i, v in enumerate(self.values)]}


@dataclass
class VertexFunction:
    """Real function on the vertices of a network."""

    network: Network
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float).reshape(-1)
        if len(self.values) != self.network.n_vertices:
            raise StructuralError("function length does not match vertex count")

    def at(self, label) -> float:
        return float(self.values[self.network.index_of(label)])

    def to_json_dict(self) -> dict:
        return {"values": [{"id": int(l), "value": float(v)}
                           for l, v in zip(self.network.labels, self.values)]}


@dataclass
class DirichletProblem:
    """Boundary-value problem: prescribe values off U, extend harmonically on U.
    boundary_idx/_vals follow the dict's order, is_boundary is their mask, interior_idx ascends."""

    network: Network
    boundary_values: dict  # label -> value

    def __post_init__(self):
        if not self.boundary_values:
            raise StructuralError("boundary set must be nonempty")
        if len(self.boundary_values) > self.network.n_vertices:
            raise StructuralError("boundary set larger than vertex set")
        self.boundary_idx = self.network.indices_of(self.boundary_values.keys())
        self.boundary_vals = np.fromiter(self.boundary_values.values(), float)
        self.is_boundary = np.zeros(self.network.n_vertices, bool)
        self.is_boundary[self.boundary_idx] = True
        self.interior_idx = np.flatnonzero(~self.is_boundary)


# ---------------------------------------------------------------------------
# gradient, energy, Kirchhoff laws


def discrete_gradient(network: Network, f) -> EdgeField:
    """c df(e) = c(e) [f(head) - f(tail)] (Ohm's law orientation)."""
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, float)
    return EdgeField(network, network.conductances * (vals[network.heads] - vals[network.tails]))


def inner_r(theta: EdgeField, phi: EdgeField) -> float:
    return float(np.sum(theta.network.resistances * theta.values * phi.values))


def energy(network: Network, theta: EdgeField) -> float:
    """E(theta) = sum_e r(e) theta(e)^2."""
    return float(np.sum(network.resistances * theta.values**2))


def energy_of_function(network: Network, f) -> float:
    """Dirichlet energy E(f) = E(c df) = sum_e c(e) [df(e)]^2."""
    return energy(network, discrete_gradient(network, f))


def node_law_residuals(network: Network, theta: EdgeField, U=None) -> np.ndarray:
    """Net outflow at each vertex of U (theta is a flow on U iff these vanish)."""
    div = theta.divergence()
    if U is None:
        return div
    return div[network.indices_of(U)]


def bfs_spanning_tree(network: Network, root: int = 0):
    """Deterministic BFS tree: (parent vertex, parent edge, parent sign, order).

    Neighbors are visited in increasing index order and a tree edge is the
    lowest-numbered edge joining a vertex to its parent.  sign +1 means the
    tree edge is traversed tail->head going root -> leaf.
    """
    if not network.is_connected:
        raise DisconnectedNetworkError("spanning tree requires a connected network")
    order, parent = (a.astype(int) for a in
                     csgraph.breadth_first_order(network.laplacian, root, directed=True))
    parent[root] = -1
    t, h = network.tails, network.heads
    down = parent[h] == t  # edge runs parent -> child
    tree = down | (parent[t] == h)
    kids = order[1:]
    parent_edge = np.full(network.n_vertices, -1)
    parent_edge[kids] = network.n_edges  # lowered to the lowest edge to the parent
    np.minimum.at(parent_edge, np.where(down, h, t)[tree], np.flatnonzero(tree))
    parent_sign = np.zeros(network.n_vertices, int)
    parent_sign[kids] = np.where(t[parent_edge[kids]] == parent[kids], 1, -1)
    return parent, parent_edge, parent_sign, order


def cycle_law_residuals(network: Network, theta: EdgeField) -> np.ndarray:
    """r-weighted sums of theta around the fundamental cycles of a BFS tree.

    All residuals vanish iff theta is a discrete gradient.
    """
    parent, parent_edge, parent_sign, order = bfs_spanning_tree(network)
    r, v = network.resistances, theta.values
    # the potential along the tree, one BFS level at a time: once order[:hi]
    # is done, the next level is the run of vertices after it whose parents
    # sit at positions < hi
    parent_at = np.argsort(order)[parent[order[1:]]]
    psi = np.zeros(network.n_vertices)
    hi = 1
    while hi < network.n_vertices:
        level = order[hi:1 + np.searchsorted(parent_at, hi)]
        e = parent_edge[level]
        psi[level] = psi[parent[level]] + parent_sign[level] * r[e] * v[e]
        hi += level.size
    off = np.ones(network.n_edges, bool)
    off[parent_edge[order[1:]]] = False
    return r[off] * v[off] - (psi[network.heads[off]] - psi[network.tails[off]])


# ---------------------------------------------------------------------------
# harmonic extension: one cached sparse factorisation of the interior Laplacian


def definite_splu(A: sp.csc_matrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """SuperLU factor of a symmetric definite A: a symmetric fill-reducing
    order, no row pivoting.  Supernodes of relaxed size 2 in panels of 4
    columns factor the interior Laplacians and packing Jacobians here faster
    than SuperLU's defaults, with the same fill."""
    return splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0, relax=2, panel_size=4,
                options={"SymmetricMode": True})


class _InteriorSolver:
    """Sparse LU of the SPD L_II = L[I][:, I] by :func:`definite_splu`, for a
    connected network, B the ascending boundary indices and I the rest, with the
    boundary columns L[I][:, B] and their transpose L[B][:, I] (L is symmetric).
    I ascends and L_II factors in MMD order, unless I is the set of the inherited
    ``_elimination`` (a packed map's interior in its radius factor's order): then
    I runs and factors in that order, as NATURAL.  Each solve checks |L_II x - rhs|_i
    <= 1e-9 pi(i) ||x||_inf + 1e-305 (the floor admits subnormal data) or raises RuntimeError."""

    def __init__(self, network: Network, boundary: np.ndarray):
        is_boundary = np.zeros(network.n_vertices, bool)
        is_boundary[boundary] = True
        self.boundary, self.interior = np.array(boundary), np.flatnonzero(~is_boundary)  # a copy: the cache key
        order, permc = network._elimination, "MMD_AT_PLUS_A"
        if order is not None and order.size == self.interior.size and not is_boundary[order].any():
            self.interior, permc = order, "NATURAL"
        rows = network.laplacian[self.interior]
        self.boundary_cols, self._matrix = rows[:, boundary], rows[:, self.interior]  # CSR: a faster check
        del rows  # not held through the factorisation
        self.boundary_rows = self.boundary_cols.T
        self._tol = 1e-9 * network.pi[self.interior]
        self._lu = definite_splu(self._matrix.tocsc(), permc)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._lu.solve(rhs)
        resid = np.abs(self._matrix @ x - rhs)
        bound = self._tol * float(np.abs(x).max(initial=0.0)) + 1e-305
        if not np.all(resid <= bound):
            raise RuntimeError(f"interior solve missed its residual check; "
                               f"worst node residual {float(resid.max()):.3e}")
        return x


def _pcg(A, b: np.ndarray, precondition, tol_abs: float, maxiter: int) -> np.ndarray:
    """x ~ A^-1 b for an SPD A by CG from 0, preconditioned by precondition(r)
    ~ A^-1 r once in each of at most maxiter iterations, until the recursive
    residual ||b - A x||_2 is at most tol_abs (the caller judges the true one)."""
    # at unit scale, so tiny right-hand sides cannot underflow the inner products
    scale = float(np.abs(b).max(initial=0.0))
    x = np.zeros(b.shape)
    if scale == 0.0:
        return x
    r, tol_abs, p, rz = b / scale, tol_abs / scale, x.copy(), 1.0
    for _ in range(maxiter):
        if np.linalg.norm(r) <= tol_abs:
            break
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
        Ap = A @ p
        denom = float(p @ Ap)
        if denom <= 0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * Ap
    return scale * x


def harmonic_extension(problem: DirichletProblem) -> VertexFunction:
    """Unique function matching the boundary data and harmonic elsewhere.

    One solve with the network's cached sparse factorisation of the interior
    Laplacian (:meth:`Network.grounded`; one boundary set factors once).  Its
    residual check bounds the node residual at each interior vertex by
    1e-9 pi(x) ||g||_inf, since ||h||_inf <= ||g||_inf, or raises RuntimeError.
    Non-finite boundary data raises ValueError before any factorisation.
    """
    return _extend(problem.network, problem.boundary_idx, problem.boundary_vals)


def _extend(net: Network, boundary_idx: np.ndarray, g: np.ndarray) -> VertexFunction:
    if not np.isfinite(g).all():  # before any factorisation
        i = int(np.argmin(np.isfinite(g)))
        raise ValueError(f"boundary value {g[i]} at vertex {net.labels[boundary_idx[i]]} is not finite")
    h = np.zeros(net.n_vertices)
    h[boundary_idx] = g
    solver = net.grounded(boundary_idx)
    h[solver.interior] = solver.solve(-(solver.boundary_cols @ h[solver.boundary]))
    return VertexFunction(net, h)


def harmonic_residuals(problem: DirichletProblem, h: VertexFunction) -> np.ndarray:
    """Node-law residuals of c dh at the interior vertices."""
    return discrete_gradient(problem.network, h).divergence()[problem.interior_idx]


# ---------------------------------------------------------------------------
# strength, gap, projection, sandwich, Dirichlet-Thomson


def strength(network: Network, theta: EdgeField, A, B, check_tol: float | None = 1e-10):
    """Net throughput of a flow between A and B (two equivalent formulas).

    Returns the out-of-A value; when ``check_tol`` is set, verifies it agrees
    with the into-B value.
    """
    a_mask, b_mask = np.zeros((2, network.n_vertices), bool)
    a_mask[network.indices_of(A)] = True
    b_mask[network.indices_of(B)] = True
    if np.any(a_mask & b_mask):
        raise StructuralError("source and sink sets overlap")
    t, h, v = network.tails, network.heads, theta.values
    out_A = float(v[a_mask[t]].sum() - v[a_mask[h]].sum())
    in_B = float(v[b_mask[h]].sum() - v[b_mask[t]].sum())
    if check_tol is not None and abs(out_A - in_B) > check_tol * (1.0 + abs(out_A) + abs(in_B)):
        raise ValueError(f"strength formulas disagree ({out_A} vs {in_B}); theta is not a flow off A u B")
    return out_A


def gap(network: Network, f, A, B) -> float:
    """gap_{A,B}(f) = min over B of f minus max over A of f."""
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, float)
    A_idx, B_idx = network.indices_of(A), network.indices_of(B)
    if np.intersect1d(A_idx, B_idx).size:
        raise StructuralError("source and sink sets overlap")
    return float(vals[B_idx].min() - vals[A_idx].max())


def project_to_current(problem: DirichletProblem, f) -> EdgeField:
    """Orthogonal projection of c df onto the current flows on U.

    Equals c dh where h is the harmonic extension of f's boundary values;
    the projection can only decrease energy.
    """
    net = problem.network
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, float)
    return discrete_gradient(net, _extend(net, problem.boundary_idx, vals[problem.boundary_idx]))


def sandwich_check(problem: DirichletProblem, f, theta: EdgeField):
    """Pythagoras split E(c df - c dh) + E(theta - c dh) = E(c df - theta).

    Preconditions (theta a flow on U, f matching the boundary data) are
    verified to a relative 1e-8 and violations reported as exceptions.
    """
    net = problem.network
    vals = f.values if isinstance(f, VertexFunction) else np.asarray(f, float)
    div = theta.divergence()[problem.interior_idx]
    scale = 1.0 + float(np.abs(theta.values).max(initial=0.0))
    if np.any(np.abs(div) > 1e-8 * scale):
        raise ValueError("theta is not a flow on the interior set")
    if np.any(np.abs(vals[problem.boundary_idx] - problem.boundary_vals) > 1e-8 * (1 + np.abs(problem.boundary_vals))):
        raise ValueError("f does not match the boundary data")
    cdh, cdf = discrete_gradient(net, harmonic_extension(problem)), discrete_gradient(net, vals)
    return energy(net, cdf - cdh), energy(net, theta - cdh), energy(net, cdf - theta)


def dirichlet_thomson_check(network: Network, theta: EdgeField, f, A, B):
    """(strength(theta) * gap(f), sqrt(E(theta) E(f))) of the two-sided bound."""
    g = gap(network, f, A, B)
    s = strength(network, theta, A, B)
    rhs = float(np.sqrt(energy(network, theta) * energy_of_function(network, f)))
    if g < 0:
        warnings.warn("gap is negative; the strength-gap inequality is vacuous here")
    return s * g, rhs


# ---------------------------------------------------------------------------
# star / cycle decomposition


def star_cycle_decomposition(network: Network, theta: EdgeField):
    """Split theta into its star-space and cycle-space components.

    The star space is exactly the space of discrete gradients; the component
    is c da where L a = -div(theta), grounded at vertex 0 (a(0) = 0).
    """
    solver = network.grounded([0])
    a = np.zeros(network.n_vertices)
    a[solver.interior] = solver.solve(-theta.divergence()[solver.interior])
    star_part = discrete_gradient(network, a)
    return star_part, theta - star_part


# ---------------------------------------------------------------------------
# exit measure of the weighted random walk


_LEAP_CAP = 24  # caps a square's structural nnz bound, in nnz(P): grids reach k = 4
_ALIAS_BLOCK = 2 ** 14  # slots per block of rows in an alias-table build


def _stopped_chain(net: Network, is_boundary: np.ndarray) -> sp.csr_matrix:
    """The walk's transition matrix P, boundary rows the identity (absorbing)."""
    d = net.laplacian.diagonal()
    moves = sp.diags(~is_boundary / d) @ (sp.diags(d) - net.laplacian)
    return (moves + sp.diags(is_boundary * 1.0)).tocsr()


def _row_cumsum(x: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Prefix sums of x within each run of equal ``row``.  Each run's total
    is taken off at the next run's start, so the sums round at row scale."""
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    y = x.copy()
    y[starts[1:]] -= np.add.reduceat(x, starts)[:-1]
    c = np.cumsum(y)
    return c - np.repeat(c[starts] - x[starts], np.diff(starts, append=x.size))


class _AliasTable:
    """Walker alias tables of the rows of a row-stochastic Q (consumes
    ``Q.data``).  A walker at v with uniform u sets x = u len(v) and takes
    slot j = start[v] + floor(x); it moves to col[j] if x < cut[j], else to
    col[alias[j]].  cut[j] is j's place in its row plus keep[j] in [0, 1].

    Built in blocks of rows of about ``_ALIAS_BLOCK`` slots by the sweep of
    Huebschle-Schneider and Sanders (2019), in array form: with each row
    scaled to mean 1, D the running deficit sum 1 - q of its light slots
    (q < 1) and E the running excess sum q - 1 of its heavy ones, a light
    slot whose deficits before it sum to D' aliases the first heavy with
    E > D'; a heavy runs out at the first light with D >= E, keeps
    1 + E - D of itself and aliases the next heavy."""

    def __init__(self, Q: sp.csr_matrix):
        # intp indices: numpy gathers with any other index type are slower
        self.start = Q.indptr[:-1].astype(np.intp)
        self.length = np.diff(Q.indptr).astype(float)
        self.col = Q.indices.astype(np.intp)
        self.cut = Q.data
        self.alias = np.empty(Q.nnz, np.int32)
        first = np.unique(np.searchsorted(Q.indptr, np.arange(0, Q.nnz, _ALIAS_BLOCK),
                                          side="right") - 1)
        for r0, r1 in zip(first, np.append(first[1:], Q.shape[0])):
            self._sweep(Q.indptr[r0:r1 + 1])

    def _sweep(self, indptr: np.ndarray):
        a, b = indptr[0], indptr[-1]
        starts, lengths = indptr[:-1] - a, np.diff(indptr)
        row = np.repeat(np.arange(lengths.size), lengths)
        q = self.cut[a:b]  # a view: the light slots keep q
        q *= (lengths / np.add.reduceat(q, starts))[row]
        # the largest slot of a row is heavy even when rounding puts it below 1
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
            # complex keys sort by (row, running sum), so one stable merge of
            # the heavy keys (row, E) and the light keys (row, before), heavies
            # first on ties, serves every row: a light lands after the heavies
            # with E <= before, a heavy after the lights with before < E
            at = np.empty(hi.size + li.size, np.intp)
            at[np.argsort(np.concatenate([rh + 1j * E, rl + 1j * before]), kind="stable")] = \
                np.arange(at.size)
            to = at[hi.size:] - np.arange(li.size)
            self.alias[a + li] = a + hi[np.minimum(to, last[rl])]
            # a heavy runs out at the first light with D >= E.  Less the row's
            # first light (before = 0) when E > 0, the lights with before < E
            # are those with D < E but the row's last; where that last one
            # has D < E too, the heavy keeps min(1, 1 + E - D) = 1 from it,
            # as from the light past its row.  A row without lights leaves m
            # on another row's light or at 0, and the heavy keeps 1.
            m = np.clip(at[:hi.size] - np.arange(hi.size) - (E > 0.0), 0, li.size - 1)
            runs_out = (rl[m] == rh) & (E > 0.0)
            keep_h[runs_out] = 1.0 + E[runs_out] - D[m[runs_out]]
        is_last = np.arange(hi.size) == last[rh]
        keep_h[is_last] = 1.0
        q[hi] = np.clip(keep_h, 0.0, 1.0)
        self.alias[a + hi] = a + np.where(is_last, hi, np.append(hi[1:], 0))
        q += np.arange(b - a) - starts[row]

    def step(self, at: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = u * self.length[at]
        slot = self.start[at] + x.astype(np.intp)
        return self.col[np.where(x < self.cut[slot], slot, self.alias[slot])]


def _leap_table(P: sp.csr_matrix, inner: np.ndarray, start: int, max_steps: int):
    """(alias table of P^k, k, its states), k doubled by squaring while 2k <=
    max_steps, some ``inner`` row of P^k keeps more than float eps of its mass
    on the inner vertices, and the square's structural nnz bound (the summed
    lengths of the rows that the slots point to) is at most ``_LEAP_CAP``
    nnz(P).  The states are those that P^2 reaches from ``start``, the only
    ones a walk from it holds at leap times (on a bipartite network, start's
    colour class and the boundary it stops on), in ascending order: the table
    renumbers them 0, 1, ..., and each of their rows of P^k keeps its entries,
    their order and its alias slots."""
    Q, k, states = P, 1, np.arange(P.shape[0])
    while (2 * k <= max_steps and (Q @ inner)[inner].max() > np.finfo(float).eps
           and np.diff(Q.indptr)[Q.indices].sum() <= _LEAP_CAP * P.nnz):
        Q, k = Q @ Q, 2 * k
        if k == 2:
            states = np.sort(csgraph.breadth_first_order(Q, start, return_predecessors=False))
            Q, inner = Q[states][:, states], inner[states]
    return _AliasTable(Q), k, states


def _exact_exit(net: Network, boundary_idx: np.ndarray, s: int) -> np.ndarray:
    """Exit masses -L[B][:, I] y from interior s, L_II y = e_s, in boundary_idx's order."""
    solver = net.grounded(boundary_idx)
    e_s = (solver.interior == s).astype(float)
    return -(solver.boundary_rows @ solver.solve(e_s))[np.searchsorted(solver.boundary, boundary_idx)]


def random_walk_exit_measure(problem: DirichletProblem, start,
                             n_samples: int | None = None, seed: int | None = None,
                             max_steps: int = 10_000_000) -> dict:
    """Distribution of the walk's exit position over the boundary set.

    Exact mode (default) is -L[B][:, I] y for L_II y = e_start, by the cached
    interior factorisation (the masses in B's order, as the arcs of
    :func:`odmap.dirichlet.exit_measure_vs_arcs` read them).  Sampled mode
    simulates ``n_samples`` weighted walks with the given seed and raises
    RuntimeError unless every walk reaches the boundary within ``max_steps``
    steps.  The walks leap k steps at a time through the alias tables of P^k,
    P the transition matrix with an absorbing boundary, so the exit law is
    that of single steps; k doubles by squaring while 2k <= max_steps, walks
    may outlast k steps and the square's size bound stays within a fixed
    multiple of nnz(P) (k = 4 on grids; a hub of high degree keeps k = 1).
    The walks leap only on the states they can reach at leap times, those P^2
    reaches from start: on a bipartite network (every lattice map) its colour
    class and the boundary, about half the states.  A loop pass takes one draw
    for up to 64 leaps, never past max_steps, then drops the exited walks,
    which stay put meanwhile.  Steps after the last whole leap are taken on
    P.  Returns {boundary label: probability}."""
    if n_samples is not None and n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    net = problem.network
    s = net.index_of(start)
    B, is_boundary = problem.boundary_idx, problem.is_boundary
    if is_boundary[s]:
        return {int(net.labels[s]): 1.0}
    if n_samples is None:
        return dict(zip(net.labels[B].tolist(), _exact_exit(net, B, s).tolist()))

    if not net.is_connected:
        raise DisconnectedNetworkError("exit measure requires a connected network")
    P = _stopped_chain(net, is_boundary)
    table, k, states = _leap_table(P, ~is_boundary, s, max_steps)
    rng = np.random.default_rng(seed)
    exits = [np.empty(0, int)]
    at = np.full(n_samples, np.searchsorted(states, s))
    steps = 0
    while at.size and steps < max_steps:
        if steps + k > max_steps:  # only when k > 1, so P is still whole
            table, k, at, states = _AliasTable(P), 1, states[at], np.arange(net.n_vertices)
        # at most 2^14 draws a pass; exited walks stay put on the absorbing boundary
        r = min(64, max(1, 2 ** 14 // at.size), (max_steps - steps) // k)
        for u in rng.random((r, at.size)):
            at = table.step(at, u)
        done = is_boundary[states[at]]
        if np.count_nonzero(done):
            exits.append(states[at[done]])
            at = at[~done]
        steps += r * k
    counts = np.bincount(np.concatenate(exits), minlength=net.n_vertices)
    total = int(counts.sum())
    if not total:
        raise RuntimeError(f"no walk reached the boundary within max_steps={max_steps}")
    if at.size:
        raise RuntimeError(f"{at.size} of {n_samples} walks had not reached the boundary "
                           f"after max_steps={max_steps}")
    return {int(net.labels[b]): int(counts[b]) / total for b in B}
