"""Dirichlet solver on the canonical primal network, discrete-vs-continuous
energy comparisons, and the convergence sweep harness.

Ground truth comes from a catalog of harmonic functions f = Re F for entire
F, whose gradients, Hessians and harmonic conjugates follow from F' and F''
by Cauchy-Riemann, so the continuous solution is exact and every measured
error is purely discretization error.
The universal constants of the convergence theorem are never asserted; the
harness reports the empirical ratio of the measured error to the theorem's
shape and only checks that it stays bounded.
"""
from __future__ import annotations

import csv
import functools
import time
from dataclasses import dataclass

import numpy as np

from .core_map import OrthodiagonalMap
from .domains import DomainSpec, hausdorff_delta
from .errors import GeometryError
from .generators import GeneratorSpec, build_generator_level
from .geometry import interior_diagonal
from .network import (
    DirichletProblem,
    VertexFunction,
    _exact_exit,
    _extend,
    energy_of_function,
    random_walk_exit_measure,
)

_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)  # n -> (nodes, weights), shared: read only


# ---------------------------------------------------------------------------
# catalog of harmonic test functions


def _complex(pts):
    """(N, 2) points (or one (2,) point) as N complex numbers x + iy."""
    return np.ascontiguousarray(np.atleast_2d(np.asarray(pts, float))).view(complex)[:, 0]


@dataclass
class TestFunction:
    """f = Re F for an entire function F, given with F' and F''.

    F, dF and d2F map complex arrays to complex arrays.  Cauchy-Riemann
    gives the rest: the harmonic conjugate is Im F, grad f = (Re F', -Im F')
    and Hess f = [[Re F'', -Im F''], [-Im F'', -Re F'']], whose 2-norm is
    |F''|.  sup_grad/sup_hess return the max of |F'| and |F''| over the four
    corners of the axis-aligned box (lo, hi); that is the sup over the box
    only when |F'| and |F''| peak at a corner of every box, the condition a
    catalog entry must meet (true of c z^k, whose modulus grows with |z|, and
    of c exp(z), whose modulus grows with x).
    """

    name: str
    F: callable
    dF: callable
    d2F: callable

    def __call__(self, pts):
        return self.F(_complex(pts)).real

    f = __call__

    def conjugate(self, pts):
        return self.F(_complex(pts)).imag

    def grad(self, pts):
        d = self.dF(_complex(pts))
        return np.column_stack([d.real, -d.imag])

    def hess(self, pts):
        s = self.d2F(_complex(pts))
        return np.stack([s.real, -s.imag, -s.imag, -s.real], axis=1).reshape(-1, 2, 2)

    def sup_grad(self, lo, hi):
        return _corner_max(self.dF, lo, hi)

    def sup_hess(self, lo, hi):
        return _corner_max(self.d2F, lo, hi)


def _corner_max(g, lo, hi):
    (x0, y0), (x1, y1) = lo, hi
    return float(np.abs(g(np.array([x0 + 1j * y0, x0 + 1j * y1, x1 + 1j * y0, x1 + 1j * y1]))).max())


CATALOG = {tf.name: tf for tf in (
    TestFunction("coord_x", lambda z: z, np.ones_like, np.zeros_like),
    TestFunction("coord_y", lambda z: -1j * z, lambda z: np.full_like(z, -1j), np.zeros_like),
    TestFunction("xy", lambda z: -0.5j * z * z, lambda z: -1j * z, lambda z: np.full_like(z, -1j)),
    TestFunction("x2_minus_y2", lambda z: z * z, lambda z: 2 * z, lambda z: np.full_like(z, 2)),
    TestFunction("re_z3", lambda z: z * z * z, lambda z: 3 * z * z, lambda z: 6 * z),
    TestFunction("im_z3", lambda z: -1j * z * z * z, lambda z: -3j * z * z, lambda z: -6j * z),
    TestFunction("exp_x_cos_y", np.exp, np.exp, np.exp),
)}


def get_test_function(name: str) -> TestFunction:
    try:
        return CATALOG[name]
    except KeyError:
        raise GeometryError(f"unknown test function {name!r}; have {sorted(CATALOG)}")


# ---------------------------------------------------------------------------
# solver wrapper


def solve_dirichlet(omap: OrthodiagonalMap, g) -> VertexFunction:
    """Discrete harmonic extension of g from the primal boundary vertices.

    g may be a TestFunction (evaluated at vertex positions) or a dict mapping
    primal vertex index -> value covering the boundary.  Its values at the
    map's cached boundary vertices go as an array to the solve behind
    :func:`harmonic_extension` (same result; a non-finite value raises
    ValueError); all solves on one map share one residual-checked factorisation.
    """
    net = omap.primal_network()
    bdry, _ = omap.boundary_vertices()
    vals = g(omap.positions[bdry]) if callable(g) else [g[v] for v in bdry.tolist()]
    return _extend(net, net.indices_of(bdry), np.asarray(vals, float))


def sup_error(omap: OrthodiagonalMap, domain: DomainSpec, tf: TestFunction,
              h_d: VertexFunction | None = None) -> float:
    """max over primal vertices inside the closed domain of |h_d - f|."""
    if h_d is None:
        h_d = solve_dirichlet(omap, tf)
    labels = h_d.network.labels
    pos = omap.positions[labels]
    inside = domain.contains(pos)
    if not inside.any():
        raise GeometryError("no primal vertex lies in the domain")
    return float(np.abs(h_d.values[inside] - tf(pos)[inside]).max())


# ---------------------------------------------------------------------------
# energy comparisons


def _map_bbox(omap: OrthodiagonalMap):
    return omap.positions.min(axis=0), omap.positions.max(axis=0)


def energy_pair_check(omap: OrthodiagonalMap, tf: TestFunction):
    """Compare the averaged primal/dual energy of f with its Dirichlet integral.

    Returns dict with e_primal, e_dual, integral, discrepancy, and the bound
    area * (10 L M eps + 8 M^2 eps^2) it must respect.  The integral is the
    line integral of Re F d(Im F) along the face sides (Cauchy-Riemann), by
    Gauss-Legendre with n = 4, 8, ..., 256 points until three orders agree, else GeometryError.
    """
    pos = omap.positions
    pnet, dnet = omap.primal_network(), omap.dual_network()
    e_p = energy_of_function(pnet, tf(pos[pnet.labels]))
    e_d = energy_of_function(dnet, tf(pos[dnet.labels]))
    interior_diagonal(pos[omap.faces])  # names the first face that is not a simple CCW polygon
    s = omap._sides
    keep = (s.twin < 0) | (s.tail[s.twin] != s.head)  # two sides running opposite ways cancel
    a = _complex(pos[s.tail[keep]])[:, None]
    d = _complex(pos[s.head[keep]])[:, None] - a
    sums = []  # two orders can agree by chance across a kink
    for n in (4, 8, 16, 32, 64, 128, 256):
        x, w = _gauss_legendre(n)
        z = a + 0.5 * (x + 1.0) * d
        terms = (tf.F(z).real * (tf.dF(z) * d).imag) @ (0.5 * w)  # on side a -> a + d
        sums.append(float(terms.sum()))
        if len(sums) > 2 and np.abs(np.diff(sums[-3:])).max() <= 1e-12 * (1.0 + np.abs(terms).sum()):
            break
    else:
        raise GeometryError(f"the Dirichlet integral of {tf.name} did not converge with 256 points a side")
    integral = sums[-1]
    lo, hi = _map_bbox(omap)
    L, M = tf.sup_grad(lo, hi), tf.sup_hess(lo, hi)
    eps, area = omap.mesh_size(), omap.area()
    disc = 0.5 * (e_p + e_d) - integral
    return {
        "e_primal": e_p,
        "e_dual": e_d,
        "integral": integral,
        "discrepancy": disc,
        "bound": area * (10 * L * M * eps + 8 * M**2 * eps**2),
        "L": L,
        "M": M,
        "eps": eps,
        "area": area,
    }


def energy_convergence_check(omap: OrthodiagonalMap, tf: TestFunction,
                             h_d: VertexFunction | None = None):
    """(E(h_c - h_d) on the primal network, explicit bound 32 area M^2 eps^2)."""
    if h_d is None:
        h_d = solve_dirichlet(omap, tf)
    net = h_d.network
    lhs = energy_of_function(net, tf(omap.positions[net.labels]) - h_d.values)
    M = tf.sup_hess(*_map_bbox(omap))
    rhs = 32.0 * omap.area() * M**2 * omap.mesh_size() ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# convergence sweeps


@dataclass
class SweepRecord:
    family: str
    n: int
    eps: float
    delta: float
    sup_error: float
    energy_error: float
    prop52_bound: float
    prop51_disc: float
    prop51_bound: float
    thm1_shape: float
    runtime_ms: float
    error: str = ""

    CSV_COLUMNS = ("family", "n", "eps", "delta", "sup_error", "energy_error",
                   "prop52_bound", "prop51_disc", "prop51_bound", "thm1_shape",
                   "runtime_ms")

    def csv_row(self):
        return [self.family, self.n, f"{self.eps:.12g}", f"{self.delta:.12g}",
                f"{self.sup_error:.12g}", f"{self.energy_error:.12g}",
                f"{self.prop52_bound:.12g}", f"{self.prop51_disc:.12g}",
                f"{self.prop51_bound:.12g}", f"{self.thm1_shape:.12g}",
                f"{self.runtime_ms:.3f}"]

    def to_json_dict(self):
        d = {k: getattr(self, k) for k in self.CSV_COLUMNS}
        if self.error:
            d["error"] = self.error
        return d


def theorem_shape(omap: OrthodiagonalMap, domain: DomainSpec, tf: TestFunction,
                  eps: float, delta: float) -> float:
    """diam(Omega) (C1 + C2 eps) / sqrt(log(diam(Omega)/(delta v eps)))."""
    lo_m, hi_m = _map_bbox(omap)
    lo_d, hi_d = domain.bounding_box()
    lo, hi = np.minimum(lo_m, lo_d), np.maximum(hi_m, hi_d)
    c1, c2 = tf.sup_grad(lo, hi), tf.sup_hess(lo, hi)
    diam = domain.diam()
    ratio = diam / max(delta, eps)
    if ratio <= 1.0:
        return float("inf")
    return diam * (c1 + c2 * eps) / float(np.sqrt(np.log(ratio)))


_HAUSDORFF_SAMPLES = 2000  # the domain side's sampling error is at most perimeter / 2000


def convergence_sweep(spec: GeneratorSpec, levels, tf: TestFunction,
                      csv_path=None) -> list:
    """One SweepRecord per refinement level; failures yield error markers."""
    if len(levels) < 2:
        raise GeometryError("a sweep needs at least two levels")
    records = []
    for n in levels:
        t0 = time.perf_counter()
        try:
            omap, domain = build_generator_level(spec, n)
            h_d = solve_dirichlet(omap, tf)
            eps = omap.mesh_size()
            delta = hausdorff_delta(omap, domain, _HAUSDORFF_SAMPLES)
            sup = sup_error(omap, domain, tf, h_d=h_d)
            e_err, p52 = energy_convergence_check(omap, tf, h_d=h_d)
            pair = energy_pair_check(omap, tf)
            rec = SweepRecord(
                family=spec.family, n=int(n), eps=eps, delta=delta,
                sup_error=sup, energy_error=e_err, prop52_bound=p52,
                prop51_disc=pair["discrepancy"], prop51_bound=pair["bound"],
                thm1_shape=theorem_shape(omap, domain, tf, eps, delta),
                runtime_ms=1000.0 * (time.perf_counter() - t0),
            )
        except Exception as exc:  # record and continue with the other levels
            rec = SweepRecord(spec.family, int(n), *[float("nan")] * 8,
                              1000.0 * (time.perf_counter() - t0), error=str(exc))
        records.append(rec)
    if csv_path is not None:
        write_sweep_csv(csv_path, records)
    return records


def write_sweep_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SweepRecord.CSV_COLUMNS)
        for rec in records:
            if not rec.error:
                writer.writerow(rec.csv_row())


# ---------------------------------------------------------------------------
# harmonic measure comparison


def poisson_arc_masses(r: float, phi0: float, k: int) -> np.ndarray:
    """Harmonic measure of k equal arcs of the unit circle from r e^{i phi0}.

    The measure of an arc w_j w_{j+1} is the normalized length of its image,
    a proper arc, under the disk automorphism phi moving the evaluation point
    to 0: (arg(phi(w_{j+1}) conj(phi(w_j))) mod 2 pi) / 2 pi, in closed form.
    """
    if r >= 1:
        raise GeometryError("evaluation point must be inside the disk")
    if k == 1:
        return np.ones(1)
    z = r * np.exp(1j * phi0)
    w = np.exp(2j * np.pi / k * np.arange(k + 1))
    img = (w - z) / (1.0 - np.conj(z) * w)
    return np.angle(img[1:] * np.conj(img[:-1])) % (2 * np.pi) / (2 * np.pi)


def exit_measure_vs_arcs(omap: OrthodiagonalMap, start: int, k: int = 16,
                         n_samples: int | None = None, seed: int | None = None,
                         center=(0.0, 0.0)) -> dict:
    """Exit distribution aggregated over k equal arcs vs its continuum limit.

    The reference is the Poisson kernel of the unit disk at the start
    position (uniform when the start vertex sits at the origin).  Returns
    the total-variation distance, both histograms and the exit measure.  From
    an interior start (the map's cached mask), exact mode reads the masses as
    an array, in the order of the map's cached boundary primal vertices.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    net, pos, c = omap.primal_network(), omap.positions, np.asarray(center, float)
    # the reference first: a start outside the disk raises before any walk
    s = net.index_of(start)
    z = complex(*(pos[net.labels[s]] - c))
    ref = poisson_arc_masses(abs(z), float(np.angle(z)), k)

    bdry, _ = omap.boundary_vertices()
    if n_samples is None and not omap.boundary_vertex_mask[net.labels[s]]:
        labels, mass = bdry, _exact_exit(net, net.indices_of(bdry), s)
        mu = dict(zip(labels.tolist(), mass.tolist()))
    else:  # sampled, or a start on the boundary, which exits where it stands
        problem = DirichletProblem(net, dict.fromkeys(bdry.tolist(), 0.0))
        mu = random_walk_exit_measure(problem, start, n_samples=n_samples, seed=seed)
        labels, mass = np.fromiter(mu, int, len(mu)), np.fromiter(mu.values(), float, len(mu))
    d = pos[labels] - c
    ang = np.arctan2(d[:, 1], d[:, 0]) % (2 * np.pi)
    # bincount adds the weights in mu's order, as the sum per arc did
    arc = np.bincount((ang / (2 * np.pi / k)).astype(int) % k, weights=mass, minlength=k)
    tv = 0.5 * float(np.abs(arc - ref).sum())
    return {"tv": tv, "arcs": arc, "reference": ref, "exit_measure": mu}
