"""The benchmark's workloads: inputs made from a seed, timed ops, and the
checks applied to each op's output.

A run makes ``INPUT_SETS`` input sets; set k uses seed ``seed + 1000 k``, so
set 0 is exactly the workload as specified for the given seed.  ``prepare``
makes one set's inputs (untimed); ``run_round`` runs the ops on one set
through a harness.Runner.  The worker goes over all sets in passes.

Tolerances in the checks come from the tolerance each routine states, not
from observed noise; the comment at each says which.
"""
from __future__ import annotations

import numpy as np

from odmap import core_map, dirichlet, flows, generators, packing

from harness import library, oracle

TF = dirichlet.get_test_function("exp_x_cos_y")
VALIDATE_TOL = 1e-9  # passed explicitly, so a change of the library default cannot move it
# harmonic_extension's postcondition: node residual <= 1e-9 pi(x) ||g||_inf
NODE_RESIDUAL = 1e-9


def input_seed(seed: int, k: int) -> int:
    return seed + 1000 * k


def _node_residual_ok(h, boundary_labels):
    """The solve's own postcondition, recomputed from its output."""
    net = h.network
    interior = np.ones(net.n_vertices, bool)
    interior[net.indices_of(boundary_labels)] = False
    g_inf = float(np.abs(h.values[~interior]).max())
    resid = np.abs(net.laplacian @ h.values)[interior]
    return bool(np.all(resid <= NODE_RESIDUAL * net.pi[interior] * g_inf + 1e-300))


# -- sweep ----------------------------------------------------------------------


class Sweep:
    """convergence_sweep on perturbed square grids: the path behind `odmap sweep`.

    Quadrature in energy_pair_check does almost all the work.  exp(x)cos(y)
    because with x^2 - y^2 the discretisation error cancels exactly.
    """

    LEVELS = (16, 32, 64)
    INPUT_SETS = 1  # the same work on every seed

    def prepare(self, seed):
        return generators.GeneratorSpec("perturbed", domain="square", seed=seed,
                                        params={"amplitude": 0.3})

    def run_round(self, run, spec):
        run.op("sweep", lambda: dirichlet.convergence_sweep(spec, self.LEVELS, TF),
               check=self.check)

    @staticmethod
    def check(records):
        checks, keys = [], {}
        for rec in records:
            n = rec.n
            checks.append(library(f"n{n}.error", not rec.error))
            if rec.error:
                continue
            checks += [
                oracle(f"n{n}.prop52", rec.energy_error <= rec.prop52_bound),
                oracle(f"n{n}.prop51", abs(rec.prop51_disc) <= rec.prop51_bound),
            ]
            faces = 2 * n * n  # bound on the face count of the n-level grid
            keys.update({
                # closed-form geometry of a fixed map: rounding only
                f"n{n}.eps": (rec.eps, 1e-12 * rec.eps),
                f"n{n}.delta": (rec.delta, 1e-12),
                # integrate_over_quad stops at |change| <= 1e-10 (1 + |value|) per face
                f"n{n}.prop51_disc": (rec.prop51_disc, faces * 1e-10 * (1.0 + abs(rec.prop51_disc))),
                # the node residual bound 1e-9 pi ||g||_inf (||g||_inf <= e on the
                # unit square) grows into the solution by at most the walk's mean
                # exit time, which is below the vertex count
                f"n{n}.sup_error": (rec.sup_error, NODE_RESIDUAL * np.e * faces),
            })
        return checks, keys


# -- pack_solve -----------------------------------------------------------------


class PackSolve:
    """Delaunay -> pack_in_disk -> map -> validate -> solve -> Prop 5.2.

    The two sizes fall on either side of the 2000-vertex switch in
    _packing_residuals, above which the all-pairs overlap check is skipped.
    """

    SIZES = (1000, 3000)
    INPUT_SETS = 1
    PACK_TOL = 1e-8  # pack_in_disk's default, as `odmap pack` uses it

    def prepare(self, seed):
        return seed

    def run_round(self, run, seed):
        for n in self.SIZES:
            run.op(f"pack_solve.N{n}", lambda n=n: self.pipeline(n, seed), check=self.check)

    @staticmethod
    def pipeline(n, seed):
        tri = generators.random_delaunay_triangulation(n, seed)
        pk = packing.pack_in_disk(tri)
        m = packing.orthodiagonal_from_packing(tri, pk)
        report = core_map.validate(m, tol=VALIDATE_TOL)
        h = dirichlet.solve_dirichlet(m, TF)
        lhs, rhs = dirichlet.energy_convergence_check(m, TF, h_d=h)
        return pk, m, report, h, lhs, rhs

    @classmethod
    def check(cls, out):
        pk, m, report, h, lhs, rhs = out
        checks = [
            library("validate", report.passed),
            oracle("solve_residual", _node_residual_ok(h, m.boundary_vertices()[0])),
            oracle("prop52", lhs <= rhs),
        ]
        keys = {
            "faces": (m.n_faces, 0),
            # residuals are held below tol * max(1, max radius)
            "max_radius": (pk.max_radius, 10 * cls.PACK_TOL),
            "max_boundary_radius": (pk.max_boundary_radius, 10 * cls.PACK_TOL),
        }
        return checks, keys


# -- disk_queries ---------------------------------------------------------------


class DiskQueries:
    """Build one disk grid, then send 17 queries to the same map.

    Many solves against one fixed matrix: the reuse a cached factorisation
    serves.  Also carries disk clipping, cold combinatorics, the random walk
    and the flow calculus.
    """

    GRID = 128
    INPUT_SETS = 1  # the map is the same on every seed; the starts are not
    STARTS = 8
    START_RADIUS = 0.7
    ARCS = 16
    WALKS = 1000
    FLOW_RADIUS = 0.3

    def __init__(self):
        self._center_arcs = None  # exact arcs from the center; the map is the same every pass

    def prepare(self, seed):
        return seed

    def run_round(self, run, seed):
        built = run.op("build", self.build, check=self.check_build)
        if built is None:
            return
        m = built[0]
        interior, _ = m.interior_vertices()
        radius = np.hypot(*m.positions[interior].T)
        center = int(interior[np.argmin(radius)])
        rng = np.random.default_rng(seed)
        starts = rng.choice(interior[radius < self.START_RADIUS], size=self.STARTS, replace=False)
        bdry = m.boundary_vertices()[0]
        for name, tf in dirichlet.CATALOG.items():
            run.op(f"solve.{name}", lambda tf=tf: dirichlet.solve_dirichlet(m, tf),
                   check=lambda h: self.check_solve(h, bdry), query=True)
        for i, s in enumerate(starts):
            run.op(f"exit.{i}", lambda s=s: dirichlet.exit_measure_vs_arcs(m, int(s), k=self.ARCS),
                   check=self.check_exit, query=True)
        run.op("exit.sampled",
               lambda: dirichlet.exit_measure_vs_arcs(m, center, k=self.ARCS,
                                                      n_samples=self.WALKS, seed=seed),
               check=lambda out: self.check_sampled(out, m, center), query=True)
        run.op("argument_flow", lambda: flows.argument_flow(m, center, self.FLOW_RADIUS),
               check=self.check_flow, query=True)

    def build(self):
        m = generators.rotated_grid("disk", self.GRID)
        return m, core_map.validate(m, tol=VALIDATE_TOL)

    @staticmethod
    def check_build(out):
        m, report = out
        return [library("validate", report.passed)], {"faces": (m.n_faces, 0)}

    @staticmethod
    def check_solve(h, bdry):
        g = h.values[h.network.indices_of(bdry)]
        # the node residual bound grown by at most the walk's mean exit time
        slack = NODE_RESIDUAL * float(np.abs(g).max()) * h.network.n_vertices
        inside = (h.values >= g.min() - slack) & (h.values <= g.max() + slack)
        return [oracle("max_principle", inside.all()),
                oracle("node_residual", _node_residual_ok(h, bdry))], {}

    @staticmethod
    def _measure_checks(mu, tol):
        p = np.fromiter(mu.values(), float)
        return [oracle("nonnegative", p.min() >= -tol), oracle("sums_to_1", abs(p.sum() - 1.0) <= tol)]

    def check_exit(self, out):
        # the exit masses sum to 1 + (sum of the solve's residual); the solve
        # promises node residuals at the 1e-9 scale
        checks = self._measure_checks(out["exit_measure"], NODE_RESIDUAL)
        return checks, {"tv": (out["tv"], NODE_RESIDUAL)}

    def check_sampled(self, out, m, center):
        if self._center_arcs is None:
            self._center_arcs = dirichlet.exit_measure_vs_arcs(m, center, k=self.ARCS)["arcs"]
        exact = self._center_arcs
        # 5 binomial standard deviations per arc, floored at one walk
        tol = 5.0 * np.sqrt(exact * (1.0 - exact) / self.WALKS) + 1.0 / self.WALKS
        checks = self._measure_checks(out["exit_measure"], 1e-12)
        checks.append(oracle("matches_exact", np.all(np.abs(out["arcs"] - exact) <= tol)))
        return checks, {}

    @staticmethod
    def check_flow(rep):
        # strength() checks the node law to 1e-10 by default
        return [oracle("strength_1", abs(rep.strength - 1.0) <= 1e-10)], \
            {"energy": (rep.energy, 1e-12 * rep.energy)}


# -- double_pack ----------------------------------------------------------------


def cone(tri):
    """A sphere triangulation: tri plus one apex joined to its boundary cycle.

    Returns the PlanarMap3C and the index of the first cone face.
    """
    apex = tri.n_vertices
    cyc = tri.boundary_cycle
    cone_faces = [[cyc[i], cyc[(i + 1) % len(cyc)], apex] for i in range(len(cyc))]
    faces = [list(map(int, f)) for f in tri.faces]
    return packing.PlanarMap3C(apex + 1, faces + cone_faces), len(faces)


class DoublePack:
    """double_pack on coned Delaunay triangulations, with the 3-connectivity
    check on (the CLI path), then the induced map and validate.

    The only workload that reaches double_pack and the cubic
    check_3_connected.  Some inputs make the Newton iteration crawl or its
    line search spin for many seconds.  So each op gets a budget of
    ``MAX_ITER`` Newton iterations (double_pack's own ``max_iter``; typical
    successes take 8-16, the slowest seen over 24 inputs 118, stalls run to
    hundreds): past it double_pack raises, on the same inputs every time, so
    the failure count depends on the inputs alone.  A time limit cannot do
    that, since outside load moves a slow success past it on one run and not
    the next.  The deadline stays as a safety net: several times what
    ``MAX_ITER`` iterations take at that size on a 2-core x86 machine, so
    that it only stops an op that hangs elsewhere.  An op past it fails and
    is charged the deadline.  Op times vary from input to input, so a run
    takes four input sets, and the ops of one size form one timing group.
    """

    SIZES = (30, 60, 120)
    INPUT_SETS = 4
    MAX_ITER = 60
    DEADLINE_S = {30: 1.5, 60: 2.5, 120: 6.0}
    TOL = 1e-9  # double_pack's default

    def prepare(self, seed):
        maps = []
        for n in self.SIZES:
            for s in (seed, seed + 1):
                h, outer = cone(generators.random_delaunay_triangulation(n, s))
                maps.append((n, h, outer))
        return maps

    def run_round(self, run, maps):
        for i, (n, h, outer) in enumerate(maps):
            run.op(f"double_pack.N{n}.{i % 2}", lambda h=h, outer=outer: self.pipeline(h, outer),
                   check=self.check, deadline_s=self.DEADLINE_S[n], group=f"double_pack.N{n}")

    @classmethod
    def pipeline(cls, h, outer):
        dp = packing.double_pack(h, outer_face=outer, max_iter=cls.MAX_ITER)
        m = packing.orthodiagonal_from_double_packing(h, dp)
        return dp, m, core_map.validate(m, tol=VALIDATE_TOL)

    @classmethod
    def check(cls, out):
        dp, m, report = out
        scale = max(1.0, float(dp.vertex_radii.max()))
        res = dp.residuals
        worst = max(res["max_vertex_tangency"], res["max_face_tangency"], res["max_point_mismatch"])
        checks = [
            # double_pack's acceptance: residuals within 10 tol max(1, max radius)
            oracle("residuals", worst <= 10 * cls.TOL * scale),
            library("validate", report.passed),
        ]
        keys = {"faces": (m.n_faces, 0),
                "max_vertex_radius": (float(dp.vertex_radii.max()), 10 * cls.TOL * scale)}
        return checks, keys


WORKLOADS = {
    "sweep": Sweep,
    "pack_solve": PackSolve,
    "disk_queries": DiskQueries,
    "double_pack": DoublePack,
}
