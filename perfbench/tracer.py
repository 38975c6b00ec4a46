"""Per-layer spans recorded from outside the package.

The traced run wraps odmap's layer entry points in place: a module-level
function is replaced in every odmap namespace that holds it (so a caller
that imported it by name sees the wrapper), a method on its class, and a
``cached_property`` by a new ``cached_property`` around the wrapped getter.
:func:`restore` puts every original back.  A target that no longer exists
is reported as absent.

Spans (name, start, end, parent, op id) are kept in memory while ops run and
written out at the end.  A span's self time is its duration minus the part
of it that its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from functools import cached_property

import numpy as np

OP_SPAN = "op"

# (span name, odmap module, attribute path in that module)
SPANS = (
    ("generators.rotated_grid", "generators", "rotated_grid"),
    ("generators.perturbed", "generators", "perturbed"),
    ("generators.random_delaunay_triangulation", "generators", "random_delaunay_triangulation"),
    ("core_map.edges", "core_map", "OrthodiagonalMap.edges"),
    ("core_map.edge_face_count", "core_map", "OrthodiagonalMap.edge_face_count"),
    ("core_map.boundary_walk", "core_map", "OrthodiagonalMap.boundary_walk"),
    ("core_map.validate", "core_map", "validate"),
    ("core_map.primal_network", "core_map", "OrthodiagonalMap.primal_network"),
    ("core_map.dual_network", "core_map", "OrthodiagonalMap.dual_network"),
    ("network.Network.init", "network", "Network.__init__"),
    ("network.is_connected", "network", "Network.is_connected"),
    ("network.laplacian", "network", "Network.laplacian"),
    ("network.harmonic_extension", "network", "harmonic_extension"),
    ("network.pcg", "network", "_pcg"),
    ("network.random_walk_exit_measure", "network", "random_walk_exit_measure"),
    ("dirichlet.solve_dirichlet", "dirichlet", "solve_dirichlet"),
    ("dirichlet.sup_error", "dirichlet", "sup_error"),
    ("dirichlet.energy_convergence_check", "dirichlet", "energy_convergence_check"),
    ("dirichlet.energy_pair_check", "dirichlet", "energy_pair_check"),
    ("dirichlet.exit_measure_vs_arcs", "dirichlet", "exit_measure_vs_arcs"),
    ("geometry.integrate_over_quad", "geometry", "integrate_over_quad"),
    ("geometry.gauss_triangle", "geometry", "gauss_triangle"),
    ("domains.hausdorff_delta", "domains", "hausdorff_delta"),
    ("packing.pack_in_disk", "packing", "pack_in_disk"),
    ("packing.radii", "packing", "_solve_hyperbolic_radii"),
    ("packing.residuals", "packing", "_packing_residuals"),
    ("packing.orthodiagonal_from_packing", "packing", "orthodiagonal_from_packing"),
    ("packing.double_pack", "packing", "double_pack"),
    ("packing.check_3_connected", "packing", "PlanarMap3C.check_3_connected"),
    ("packing.double_residuals", "packing", "_double_packing_residuals"),
    ("packing.orthodiagonal_from_double_packing", "packing", "orthodiagonal_from_double_packing"),
    ("flows.argument_flow", "flows", "argument_flow"),
)

_SIGNATURES: dict = {}


def _bind(fn, args, kwargs):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    return sig.bind(*args, **kwargs)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.op = None
        self._stack: list = []
        self.counts = {"network.pcg.unknowns": 0, "network.pcg.missed": 0,
                       "geometry.quad.points": 0, "geometry.quad.accepted": 0,
                       "core_map.faces": 0}

    def open(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(i)
        return i

    def close(self, i: int):
        self.ends[i] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id) -> int:
        self.op = op_id
        return self.open(OP_SPAN)

    def end_op(self, i: int):
        self.close(i)
        self.op = None

    def wrap(self, name, fn, around=None):
        """``fn`` recording a span named ``name`` while an op is running.

        ``around(tracer, fn, args, kwargs)`` replaces the plain call when a
        target also feeds counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(tracer, fn, args, kwargs)
            finally:
                tracer.close(i)

        return traced

    def write(self, path):
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i, (n, s, e, p, o) in enumerate(zip(self.names, self.starts, self.ends,
                                                    self.parents, self.ops)):
                fh.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{o}\n")


# -- counters fed at the layer boundary ---------------------------------------


def _pcg_around(tracer, fn, args, kwargs):
    """Counts unknowns, and calls whose true residual misses the target they were given."""
    bound = _bind(fn, args, kwargs)
    x = fn(*args, **kwargs)
    A, b, tol_abs = (bound.arguments[k] for k in ("A", "b", "tol_abs"))
    tracer.counts["network.pcg.unknowns"] += len(b)
    if float(np.linalg.norm(b - A @ x)) > tol_abs:
        tracer.counts["network.pcg.missed"] += 1
    return x


def _quad_around(tracer, fn, args, kwargs):
    """Counts integrand points evaluated, and those in the rule that was accepted."""
    bound = _bind(fn, args, kwargs)
    f = bound.arguments["f"]
    sizes = []

    def counted(pts):
        sizes.append(len(pts))
        return f(pts)

    bound.arguments["f"] = counted
    out = fn(*bound.args, **bound.kwargs)
    # the returned value comes from the last rule, i.e. the trailing calls
    # made with the same number of points
    accepted = 0
    for n in reversed(sizes):
        if n != sizes[-1]:
            break
        accepted += n
    tracer.counts["geometry.quad.points"] += sum(sizes)
    tracer.counts["geometry.quad.accepted"] += accepted
    return out


def _edges_around(tracer, fn, args, kwargs):
    tracer.counts["core_map.faces"] += args[0].n_faces
    return fn(*args, **kwargs)


AROUND = {
    "network.pcg": _pcg_around,
    "geometry.integrate_over_quad": _quad_around,
    "core_map.edges": _edges_around,
}


def install(tracer, package="odmap", spans=SPANS):
    """Wrap every target in ``spans``; returns (patches for restore, absent span names)."""
    namespaces = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == package or name.startswith(package + "."))]
    patches, absent = [], []
    for span, module, path in spans:
        owner = sys.modules.get(f"{package}.{module}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            absent.append(span)
            continue
        if isinstance(original, cached_property):
            new = cached_property(tracer.wrap(span, original.func, AROUND.get(span)))
            new.__set_name__(owner, attr)
            patches.append((owner, attr, original))
            setattr(owner, attr, new)
        elif owner_path:
            patches.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, AROUND.get(span)))
        else:
            wrapped = tracer.wrap(span, original, AROUND.get(span))
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, name, original))
                        setattr(ns, name, wrapped)
    return patches, absent


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- aggregation ----------------------------------------------------------------


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (lo, hi) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted((max(starts[c], lo), min(ends[c], hi)) for c in children.get(i, ())):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def op_accounting_error(tracer, selfs) -> float:
    """Largest |sum of self times in an op's tree - op span| / op span."""
    root_of = {}
    total: dict = {}
    worst = 0.0
    for i, (name, p) in enumerate(zip(tracer.names, tracer.parents)):
        root_of[i] = i if p < 0 else root_of[p]
        total[root_of[i]] = total.get(root_of[i], 0.0) + selfs[i]
    for r, s in total.items():
        dur = tracer.ends[r] - tracer.starts[r]
        if dur > 0:
            worst = max(worst, abs(s - dur) / dur)
    return worst


def layer_metrics(tracer, rounds: int, absent=()) -> dict:
    """calls / self_ms / total_ms per span and the counters, each per round
    (one input set in one pass).

    total_ms counts a span only when no enclosing span has the same name.
    """
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    names = tracer.names
    acc = {span: [0, 0.0, 0.0] for span, _, _ in SPANS if span not in absent}
    for i, name in enumerate(names):
        if name not in acc:
            continue
        a = acc[name]
        a[0] += 1
        a[1] += selfs[i]
        p = tracer.parents[i]
        while p >= 0 and names[p] != name:
            p = tracer.parents[p]
        if p < 0:
            a[2] += tracer.ends[i] - tracer.starts[i]
    out = {}
    for span, (calls, self_s, total_s) in acc.items():
        out[f"{span}.calls"] = (calls / rounds, "count")
        out[f"{span}.self_ms"] = (1000.0 * self_s / rounds, "ms")
        out[f"{span}.total_ms"] = (1000.0 * total_s / rounds, "ms")
    c = tracer.counts
    out["network.pcg.unknowns"] = (c["network.pcg.unknowns"] / rounds, "count")
    out["network.pcg.missed"] = (c["network.pcg.missed"] / rounds, "count")
    out["geometry.quad.points"] = (c["geometry.quad.points"] / rounds, "count")
    points = c["geometry.quad.points"]
    out["geometry.quad.useful_frac"] = (c["geometry.quad.accepted"] / points if points else 0.0, "ratio")
    out["core_map.faces"] = (c["core_map.faces"] / rounds, "count")
    return out, op_accounting_error(tracer, selfs)
