"""Every layer the benchmark's tracer times must exist in odmap, so a
refactor cannot silently drop a layer from the traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


SPANS = _spans()


@pytest.mark.parametrize("span, module, path", SPANS, ids=[span for span, _, _ in SPANS])
def test_traced_span_resolves(span, module, path):
    # the tracer's own rule: the last name must be defined on its owner
    # itself (a module, or a class in it), not inherited
    owner = importlib.import_module(f"odmap.{module}")
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{span}: odmap.{module}.{path} is gone"
