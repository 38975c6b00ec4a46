"""Every demo runs to the end and writes the files it promises."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WRITES = {
    "01_maps_and_validation.py": {"demo_map.json"},
    "02_dirichlet_convergence.py": {"demo_sweep_x2_minus_y2.csv", "demo_sweep_exp_x_cos_y.csv"},
    "03_circle_packing.py": {"demo_packing.svg", "demo_double_packing.svg"},
    "04_flows_and_resistance.py": set(),
    "05_exit_measure.py": set(),
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("demo", sorted(WRITES))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    written = {p.name for p in tmp_path.glob("demo_*")}
    assert written == WRITES[demo]
    assert all((tmp_path / name).stat().st_size > 0 for name in written)
