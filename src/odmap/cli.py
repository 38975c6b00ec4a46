"""Command-line front end.

Subcommands: generate, validate, pack, doublepack, solve, flow, sweep,
exitmeasure.  Exit codes: 0 success, 2 validation failure (reports are still
written), 1 structural or usage errors.  All failures emit a machine-readable
JSON diagnostic on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dirichlet, flows, generators, packing
from .core_map import OrthodiagonalMap, validate
from .domains import hausdorff_delta, unit_disk
from .errors import StructuralError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise StructuralError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="odmap", description=__doc__)
    p.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
    p.add_argument("--seed", type=int, default=0)
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("generate", help="emit a map of a built-in family")
    g.add_argument("--family",
                   choices=["rotated_grid", "rect_nonuniform", "perturbed",
                            "packed_triangulation", "packed_lattice", "double_packed"])
    g.add_argument("--spec", help="JSON file holding a full generator spec")
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--domain", choices=["square", "disk"], default="square")
    g.add_argument("--amplitude", type=float, default=0.3)
    g.add_argument("--shape", default="cube", help="double_packed shape")
    g.add_argument("-o", "--output", required=True)

    v = add_parser("validate", help="validate a map file")
    v.add_argument("input")
    v.add_argument("-o", "--output", help="write the report JSON here")

    pk = add_parser("pack", help="circle-pack a triangulation in the disk")
    pk.add_argument("--in", dest="input", required=True, help="triangulation JSON")
    pk.add_argument("-o", "--output", required=True, help="packing JSON")
    pk.add_argument("--emit-map", help="also write the induced orthodiagonal map")
    pk.add_argument("--emit-svg", help="also write an SVG rendering")
    pk.add_argument("--eta", type=float, default=None)

    dp = add_parser("doublepack", help="double circle packing of a 3-connected map")
    dp.add_argument("--shape", choices=list(generators.SHAPES))
    dp.add_argument("--in", dest="input", help="planar map JSON (vertex count + face cycles)")
    dp.add_argument("--outer-face", type=int, default=0)
    dp.add_argument("-o", "--output", required=True)
    dp.add_argument("--emit-map", help="also write the induced orthodiagonal map")
    dp.add_argument("--emit-svg")

    s = add_parser("solve", help="solve the Dirichlet problem on a map")
    s.add_argument("--map", dest="map_path", required=True)
    s.add_argument("--g", dest="g_name", required=True,
                   help="test function name or JSON file of boundary values")
    s.add_argument("-o", "--output", required=True)

    fl = add_parser("flow", help="build an explicit flow and report its energy "
                    "(random_path uses the left/right cones about the centre of "
                    "the map's bounding box as source and sink)")
    fl.add_argument("--map", dest="map_path", required=True)
    fl.add_argument("--kind", choices=["argument", "random_path"], default="argument")
    fl.add_argument("--x", type=int, default=None, help="center vertex (default: nearest the box centre)")
    fl.add_argument("--r", type=float, default=0.2)
    fl.add_argument("--r1", type=float, default=0.1)
    fl.add_argument("--r2", type=float, default=0.3)
    fl.add_argument("--m", type=int, default=32)
    fl.add_argument("--relax", action="store_true",
                    help="allow r below 3*mesh (argument), or r1 below mesh or r2 below 2*r1 (random_path)")
    fl.add_argument("-o", "--output", required=True)

    sw = add_parser("sweep", help="convergence sweep over refinement levels")
    sw.add_argument("--family", default="rotated_grid")
    sw.add_argument("--levels", required=True, help="comma separated, e.g. 8,16,32,64")
    sw.add_argument("--g", dest="g_name", default="x2_minus_y2")
    sw.add_argument("--domain", choices=["square", "disk"], default="square")
    sw.add_argument("-o", "--output", required=True, help="CSV output path")
    sw.add_argument("--json", dest="json_out", help="also mirror records to JSON")

    em = add_parser("exitmeasure", help="exit measure vs the unit disk's harmonic measure arcs, on maps of it")
    em.add_argument("--map", dest="map_path", required=True)
    em.add_argument("--start", type=int, default=None, help="start vertex (default: nearest the box centre)")
    em.add_argument("--arcs", type=int, default=16)
    em.add_argument("--samples", type=int, default=None, help="sampled mode walk count")
    em.add_argument("-o", "--output", required=True)
    return p


def _box_center(omap: OrthodiagonalMap) -> np.ndarray:
    return (omap.positions.min(axis=0) + omap.positions.max(axis=0)) / 2


def _central_primal_vertex(omap: OrthodiagonalMap, v=None) -> int:
    """The interior (else any) primal vertex nearest the box centre, or a vertex argument v range-checked."""
    if v is not None:
        if not 0 <= v < omap.n_vertices:
            raise StructuralError(f"vertex {v} is not one of the map's {omap.n_vertices} (0 to {omap.n_vertices - 1})")
        return v
    interior, _ = omap.interior_vertices()
    pool = interior if interior.size else omap.primal_vertices
    d = omap.positions[pool] - _box_center(omap)
    return int(pool[np.argmin(np.hypot(d[:, 0], d[:, 1]))])


def _load_triangulation(path) -> packing.Triangulation:
    with open(path) as fh:
        data = json.load(fh)
    tri = packing.Triangulation(int(data["n_vertices"]),
                                np.array(data["faces"], int))
    if "positions" in data and data["positions"]:
        tri.positions = np.array(data["positions"], float)
    return tri.validate()


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def _run(args) -> int:
    if getattr(args, "tol", 1.0) <= 0:
        raise StructuralError("tolerances must be positive")
    inputs = {str(getattr(args, a)) for a in ("input", "map_path", "spec")
              if getattr(args, a, None)}
    outputs = [getattr(args, a) for a in ("output", "emit_map", "emit_svg", "json_out")
               if getattr(args, a, None)]
    if len(set(map(str, outputs))) != len(outputs) or inputs & set(map(str, outputs)):
        raise StructuralError("input and output paths must be distinct")

    if args.command == "generate":
        if args.spec:
            with open(args.spec) as fh:
                data = json.load(fh)
            spec = generators.GeneratorSpec(
                family=data["family"], n=int(data.get("n", 8)),
                seed=int(data.get("seed", args.seed)),
                domain=data.get("domain", "square"),
                params=data.get("params", {}))
        elif args.family:
            spec = generators.GeneratorSpec(
                family=args.family, n=args.n, seed=args.seed, domain=args.domain,
                params={"amplitude": args.amplitude, "shape": args.shape})
        else:
            raise StructuralError("generate needs --family or --spec")
        omap, _ = generators.build_generator_level(spec)
        omap.to_json(args.output)
        print(f"wrote {args.output}: {omap.n_vertices} vertices, {omap.n_faces} faces")
        return 0

    if args.command == "validate":
        omap = OrthodiagonalMap.from_json(args.input)
        report = validate(omap, tol=args.tol)
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        print(text)
        return 0 if report.passed else 2

    if args.command == "pack":
        tri = _load_triangulation(args.input)
        pk = packing.pack_in_disk(tri)
        _write_json(args.output, pk.to_json_dict())
        omap = None
        if args.emit_map or args.emit_svg:
            omap = packing.orthodiagonal_from_packing(tri, pk, eta=args.eta)
        if args.emit_map:
            omap.to_json(args.emit_map)
        if args.emit_svg:
            packing.packing_svg(args.emit_svg, pk.centers, pk.radii, omap)
        print(f"packed {tri.n_vertices} circles; residuals {pk.residuals}")
        return 0

    if args.command == "doublepack":
        if args.shape:
            h = generators.SHAPES[args.shape]()
        elif args.input:
            with open(args.input) as fh:
                data = json.load(fh)
            h = packing.PlanarMap3C(int(data["n_vertices"]), data["faces"])
        else:
            raise StructuralError("doublepack needs --shape or --in")
        dp = packing.double_pack(h, outer_face=args.outer_face)
        _write_json(args.output, dp.to_json_dict())
        omap = None
        if args.emit_map or args.emit_svg:
            omap = packing.orthodiagonal_from_double_packing(h, dp)
        if args.emit_map:
            omap.to_json(args.emit_map)
        if args.emit_svg:
            centers = np.vstack([dp.vertex_centers, dp.face_centers])
            radii = np.concatenate([dp.vertex_radii, dp.face_radii])
            packing.packing_svg(args.emit_svg, centers, radii, omap)
        print(f"double packed; residuals {dp.residuals}")
        return 0

    if args.command == "solve":
        omap = OrthodiagonalMap.from_json(args.map_path)
        if args.g_name in dirichlet.CATALOG:
            g = dirichlet.get_test_function(args.g_name)
        else:
            with open(args.g_name) as fh:
                g = {int(k): float(v) for k, v in json.load(fh).items()}
        h = dirichlet.solve_dirichlet(omap, g)
        _write_json(args.output, h.to_json_dict())
        print(f"solved Dirichlet problem on {omap.n_faces} faces -> {args.output}")
        return 0

    if args.command == "flow":
        omap = OrthodiagonalMap.from_json(args.map_path)
        if args.kind == "argument":
            report = flows.argument_flow(omap, _central_primal_vertex(omap, args.x), args.r,
                                         relax_radius_hypothesis=args.relax)
        else:
            # the cones and circles about the centre of the map's bounding box
            pv, center = omap.primal_vertices, _box_center(omap)
            x, y = (omap.positions[pv] - center).T
            report = flows.random_path_flow(omap, pv[x <= -abs(y)].tolist(), pv[x >= abs(y)].tolist(),
                                            args.r1, args.r2, m=args.m, center=center,
                                            relax_radius_hypothesis=args.relax)
        _write_json(args.output, report.to_json_dict())
        print(f"flow strength {report.strength:.12g}, energy {report.energy:.12g}, "
              f"ratio {report.ratio:.6g}")
        return 0

    if args.command == "sweep":
        levels = [int(x) for x in args.levels.split(",") if x]
        spec = generators.GeneratorSpec(family=args.family, seed=args.seed,
                                        domain=args.domain)
        tf = dirichlet.get_test_function(args.g_name)
        records = dirichlet.convergence_sweep(spec, levels, tf, csv_path=args.output)
        if args.json_out:
            _write_json(args.json_out, [r.to_json_dict() for r in records])
        bad = [r for r in records if r.error]
        for r in records:
            line = (f"n={r.n} eps={r.eps:.4g} sup={r.sup_error:.4g} "
                    f"E={r.energy_error:.4g} bound52={r.prop52_bound:.4g}"
                    if not r.error else f"n={r.n} ERROR {r.error}")
            print(line)
        return 0 if not bad else 1

    if args.command == "exitmeasure":
        omap = OrthodiagonalMap.from_json(args.map_path)
        start = _central_primal_vertex(omap, args.start)
        out = dirichlet.exit_measure_vs_arcs(omap, start, k=args.arcs,
                                             n_samples=args.samples, seed=args.seed)
        # the unit disk's Poisson kernel describes maps of the unit disk only
        disk = hausdorff_delta(omap, unit_disk()) <= 2.0 * omap.mesh_size()
        _write_json(args.output, {"arcs": out["arcs"].tolist(), "start": start, **(
            {"tv": out["tv"], "reference": out["reference"].tolist()} if disk else {"reference": None})})
        print(f"total variation vs harmonic measure: {out['tv']:.6g}" if disk else
              "no reference: the map's boundary lies more than twice its mesh size from the unit circle")
        return 0

    raise StructuralError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    # every odmap error subclasses ValueError or RuntimeError; OSError covers
    # unreadable inputs and unwritable outputs
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
