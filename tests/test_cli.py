import json

import pytest

import odmap
from odmap.cli import main

from conftest import central_primal_vertex


def run(args):
    return main([str(a) for a in args])


def test_generate_then_validate(tmp_path, capsys):
    out = tmp_path / "map.json"
    assert run(["generate", "--family", "rotated_grid", "--n", 16,
                "--domain", "square", "-o", out]) == 0
    assert run(["validate", out]) == 0
    # re-emission is bit-identical modulo key order
    m = odmap.OrthodiagonalMap.from_json(out)
    assert m.to_json() == out.read_text()


def test_validate_failure_exit_2(tmp_path, capsys):
    m = odmap.diamond_map()
    pos = m.positions.copy()
    pos[5] = [1.5, 1.0]
    bad = odmap.OrthodiagonalMap(pos, m.primal_mask, m.faces)
    path = tmp_path / "bad.json"
    bad.to_json(path)
    report_path = tmp_path / "report.json"
    assert run(["validate", path, "-o", report_path]) == 2
    report = json.loads(report_path.read_text())
    assert report["passed"] is False


def test_structural_error_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["validate", missing]) == 1
    err = capsys.readouterr().err
    diag = json.loads(err.strip().splitlines()[-1])
    assert "error" in diag


def test_bad_arguments_exit_1(capsys):
    assert run(["generate", "--family", "no_such_family", "-o", "x.json"]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "StructuralError"


def test_generate_packed_triangulation_of_two_points_exit_1(tmp_path, capsys):
    assert run(["generate", "--family", "packed_triangulation", "--n", 2,
                "-o", tmp_path / "map.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "GeometryError"


def test_output_path_is_a_directory_exit_1(tmp_path, capsys):
    assert run(["generate", "--family", "rotated_grid", "--n", 4, "-o", tmp_path]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "IsADirectoryError"


@pytest.mark.parametrize("outer", [9, -1])
def test_doublepack_outer_face_out_of_range_exit_1(tmp_path, capsys, outer):
    assert run(["doublepack", "--shape", "cube", "--outer-face", outer,
                "-o", tmp_path / "dp.json"]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag == {"error": "StructuralError",
                    "detail": f"outer face {outer} out of range for 6 faces"}


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    json_out = tmp_path / "sweep.json"
    code = run(["sweep", "--family", "rotated_grid", "--levels", "8,16,32,64",
                "--g", "x2_minus_y2", "-o", out, "--json", json_out])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for row in rows:
        assert float(row["energy_error"]) <= float(row["prop52_bound"])
    mirror = json.loads(json_out.read_text())
    assert [r["n"] for r in mirror] == [8, 16, 32, 64]


def test_generate_from_spec_json(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"family": "rotated_grid", "n": 8, "domain": "square"}))
    out = tmp_path / "map.json"
    assert run(["generate", "--spec", spec_path, "-o", out]) == 0
    assert run(["validate", out]) == 0


def test_pack_cli(tmp_path):
    tri = odmap.random_delaunay_triangulation(60, seed=4)
    tri_path = tmp_path / "tri.json"
    with open(tri_path, "w") as fh:
        json.dump({"n_vertices": tri.n_vertices, "faces": tri.faces.tolist()}, fh)
    pack_path = tmp_path / "packing.json"
    map_path = tmp_path / "map.json"
    svg_path = tmp_path / "packing.svg"
    assert run(["pack", "--in", tri_path, "-o", pack_path,
                "--emit-map", map_path, "--emit-svg", svg_path]) == 0
    packing = json.loads(pack_path.read_text())
    assert packing["format"] == "odpack/1"
    assert len(packing["circles"]) == tri.n_vertices
    assert run(["validate", map_path]) == 0
    assert svg_path.read_text().startswith("<svg")


def test_doublepack_cli(tmp_path):
    out = tmp_path / "dp.json"
    map_path = tmp_path / "dpmap.json"
    assert run(["doublepack", "--shape", "prism", "-o", out,
                "--emit-map", map_path]) == 0
    data = json.loads(out.read_text())
    assert data["format"] == "oddoublepack/1"
    assert run(["validate", map_path]) == 0


def test_solve_cli(tmp_path):
    map_path = tmp_path / "map.json"
    sol_path = tmp_path / "sol.json"
    run(["generate", "--family", "rotated_grid", "--n", 8, "-o", map_path])
    assert run(["solve", "--map", map_path, "--g", "coord_x", "-o", sol_path]) == 0
    sol = json.loads(sol_path.read_text())
    m = odmap.OrthodiagonalMap.from_json(map_path)
    for entry in sol["values"]:
        assert entry["value"] == pytest.approx(m.positions[entry["id"], 0], abs=1e-9)


def test_solve_with_boundary_table_file(tmp_path):
    map_path = tmp_path / "map.json"
    g_path = tmp_path / "g.json"
    sol_path = tmp_path / "sol.json"
    m = odmap.diamond_map()
    m.to_json(map_path)
    bdry, _ = m.boundary_vertices()
    g_path.write_text(json.dumps({str(int(v)): 2.0 for v in bdry}))
    assert run(["solve", "--map", map_path, "--g", g_path, "-o", sol_path]) == 0
    sol = json.loads(sol_path.read_text())
    assert all(abs(e["value"] - 2.0) < 1e-12 for e in sol["values"])


def test_coincident_paths_rejected(tmp_path):
    path = tmp_path / "map.json"
    odmap.diamond_map().to_json(path)
    assert run(["validate", path, "-o", path]) == 1
    assert run(["--tol", "-1", "validate", path]) == 1


def test_flow_cli(tmp_path):
    map_path = tmp_path / "map.json"
    flow_path = tmp_path / "flow.json"
    g = odmap.rotated_grid("square", 32)
    odmap.OrthodiagonalMap(g.positions - 0.5, g.primal_mask, g.faces).to_json(map_path)
    assert run(["flow", "--map", map_path, "--kind", "argument", "--r", 0.3,
                "-o", flow_path]) == 0
    data = json.loads(flow_path.read_text())
    assert data["strength"] == pytest.approx(1.0, abs=1e-9)
    assert {"strength", "energy", "bound_shape", "ratio", "edges"} <= set(data)


def test_exitmeasure_cli(tmp_path):
    map_path = tmp_path / "map.json"
    out_path = tmp_path / "exit.json"
    odmap.diamond_map(scale=0.5).to_json(map_path)
    assert run(["exitmeasure", "--map", map_path, "--arcs", 4, "-o", out_path]) == 0
    data = json.loads(out_path.read_text())
    assert data["tv"] <= 1e-9
    assert sum(data["arcs"]) == pytest.approx(1.0, abs=1e-9)


def test_exitmeasure_cli_rejects_zero_samples(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    odmap.diamond_map(scale=0.5).to_json(map_path)
    for option, value, message in (("--samples", 0, "n_samples must be at least 1"),
                                   ("--arcs", 0, "k must be at least 1, got 0"),
                                   ("--arcs", -3, "k must be at least 1, got -3")):
        assert run(["exitmeasure", "--map", map_path, option, value, "-o", tmp_path / "x.json"]) == 1
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "ValueError" and message in diag["detail"]


def test_exitmeasure_cli_rejects_start_outside_disk(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    m = odmap.rotated_grid("square", 32)
    m.to_json(map_path)
    start = central_primal_vertex(m, target=(0.94, 0.91))  # at r = 1.30
    assert run(["exitmeasure", "--map", map_path, "--start", start, "--samples", 2000,
                "-o", tmp_path / "x.json"]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag == {"error": "GeometryError", "detail": "evaluation point must be inside the disk"}
    assert not (tmp_path / "x.json").exists()


def test_flow_cli_random_path_runs_between_the_cones(tmp_path):
    map_path = tmp_path / "map.json"
    flow_path = tmp_path / "flow.json"
    odmap.rotated_grid("disk", 16).to_json(map_path)
    assert run(["flow", "--map", map_path, "--kind", "random_path", "-o", flow_path]) == 0
    m = odmap.OrthodiagonalMap.from_json(map_path)
    pos = m.positions[m.primal_vertices]
    S = [int(v) for v, p in zip(m.primal_vertices, pos) if p[0] <= -abs(p[1])]
    T = [int(v) for v, p in zip(m.primal_vertices, pos) if p[0] >= abs(p[1])]
    want = odmap.flows.random_path_flow(m, S, T, 0.1, 0.3, m=32).to_json_dict()
    assert json.loads(flow_path.read_text()) == json.loads(json.dumps(want))


def test_flow_cli_random_path_cones_about_the_box_centre(tmp_path):
    # a generated square grid lies in [0, 1]^2: cones about the origin
    # would leave the left one empty
    map_path, flow_path = tmp_path / "sq.json", tmp_path / "flow.json"
    assert run(["generate", "--family", "rotated_grid", "--n", 16, "--domain", "square",
                "-o", map_path]) == 0
    assert run(["flow", "--map", map_path, "--kind", "random_path", "-o", flow_path]) == 0
    assert json.loads(flow_path.read_text())["strength"] == pytest.approx(1.0, abs=1e-12)
    # r2 < 2 r1 breaks the radius hypothesis, which --relax lets through
    narrow = ["flow", "--map", map_path, "--kind", "random_path", "--r1", 0.15, "--r2", 0.25,
              "-o", flow_path]
    assert run(narrow) == 1
    with pytest.warns(UserWarning, match="the energy bound may fail"):
        assert run(narrow + ["--relax"]) == 0


def _square_grid(tmp_path):
    """The 144-vertex rotated grid on [0, 1]^2, as `odmap generate` writes it."""
    path = tmp_path / "sq.json"
    assert run(["generate", "--family", "rotated_grid", "--n", 16, "--domain", "square", "-o", path]) == 0
    return path


@pytest.mark.parametrize("command, option", [("flow", "--x"), ("exitmeasure", "--start")])
@pytest.mark.parametrize("vertex", [144, 150, -1])
def test_vertex_arguments_out_of_range_exit_1(tmp_path, capsys, command, option, vertex):
    path = _square_grid(tmp_path)
    assert run([command, "--map", path, option, vertex, "-o", tmp_path / "out.json"]) == 1
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag == {"error": "StructuralError", "detail": f"vertex {vertex} is not one of the map's 144 (0 to 143)"}
    assert not (tmp_path / "out.json").exists()


def test_flow_and_exitmeasure_default_to_the_vertex_nearest_the_box_centre(tmp_path):
    # the vertex nearest the origin is a corner of [0, 1]^2, where a disk of
    # radius 0.2 reaches the boundary
    path, flow_path, exit_path = _square_grid(tmp_path), tmp_path / "a.json", tmp_path / "e.json"
    with pytest.warns(UserWarning, match="radius below 3\\*mesh"):
        assert run(["flow", "--map", path, "--kind", "argument", "--r", 0.2, "--relax", "-o", flow_path]) == 0
    m = odmap.OrthodiagonalMap.from_json(path)
    x = central_primal_vertex(m, target=(0.5, 0.5))
    with pytest.warns(UserWarning):
        want = odmap.flows.argument_flow(m, x, 0.2, relax_radius_hypothesis=True).to_json_dict()
    data = json.loads(flow_path.read_text())
    assert data == json.loads(json.dumps(want)) and data["strength"] == pytest.approx(1.0, abs=1e-9)
    assert run(["exitmeasure", "--map", path, "-o", exit_path]) == 0
    assert json.loads(exit_path.read_text())["start"] == x
    # a disk grid's box centre is the origin
    odmap.rotated_grid("disk", 16).to_json(path)
    assert run(["exitmeasure", "--map", path, "-o", exit_path]) == 0
    assert json.loads(exit_path.read_text())["start"] == central_primal_vertex(odmap.OrthodiagonalMap.from_json(path))


@pytest.mark.parametrize("family, domain, compared", [
    ("rotated_grid", "square", False), ("perturbed", "square", False), ("rect_nonuniform", "square", False),
    ("rotated_grid", "disk", True), ("perturbed", "disk", True), ("packed_triangulation", "disk", True),
    ("packed_lattice", "disk", True),
])
def test_exitmeasure_compares_with_the_unit_disk_only_on_maps_of_it(tmp_path, family, domain, compared):
    # the reference is the unit disk's Poisson kernel: on a map whose boundary
    # lies far from the unit circle it is null, and no tv is given
    path, out = tmp_path / "map.json", tmp_path / "e.json"
    assert run(["generate", "--family", family, "--n", 16, "--domain", domain, "-o", path]) == 0
    assert run(["exitmeasure", "--map", path, "-o", out]) == 0
    data = json.loads(out.read_text())
    assert sum(data["arcs"]) == pytest.approx(1.0, abs=1e-9)
    if not compared:
        assert data["reference"] is None and "tv" not in data
        return
    want = odmap.dirichlet.exit_measure_vs_arcs(odmap.OrthodiagonalMap.from_json(path), data["start"])
    assert data["tv"] == want["tv"] and data["reference"] == want["reference"].tolist()
