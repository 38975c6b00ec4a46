"""`import odmap` loads numpy and scipy.sparse only; the rest loads on first use."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFERRED = ("scipy.optimize", "scipy.spatial", "scipy.fft", "scipy.special")

PROBE = f"""
import cmath, sys
import odmap, odmap.cli
print(*[m in sys.modules for m in {DEFERRED!r}])
from odmap.cli import _central_primal_vertex
m = odmap.rotated_grid("disk", 64)
odmap.argument_flow(m, _central_primal_vertex(m), 0.2)
corners = [cmath.rect(1 + k % 2, 2 * cmath.pi * k / 60) for k in range(60)]
star = odmap.DomainSpec("polygon", [[z.real, z.imag] for z in corners])
star.diam()
m = odmap.perturbed(odmap.rotated_grid("square", 16), 0.3, seed=1)
odmap.hausdorff_delta(m, odmap.unit_square(), 500)
star.face_distance(0.3 * m.positions[m.faces] - 0.15)
print("scipy.spatial" in sys.modules)
from odmap.packing import Triangulation, pack_in_disk
pack_in_disk(Triangulation(6, [[0, i, i + 1] for i in range(1, 5)]))
print(*[m in sys.modules for m in {DEFERRED!r}])
"""


def test_import_defers_optimize_and_spatial():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    after_import, after_flow, after_pack = done.stdout.split("\n")[:3]
    assert after_import == " ".join(["False"] * len(DEFERRED))
    # a map's diameter (which argument_flow needs) and a 60-corner domain's
    # take no convex hull, and the near-pair grid behind hausdorff_delta and
    # polygon face_distance is numpy alone
    assert after_flow == "False"
    # packing loads scipy.spatial for its overlap check; its layout is all
    # closed forms, so no root-finder loads scipy.optimize (scipy.fft and
    # scipy.special load or not with scipy's own imports)
    optimize, spatial = after_pack.split()[:2]
    assert (optimize, spatial) == ("False", "True")
