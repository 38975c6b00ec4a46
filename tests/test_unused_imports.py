"""Every name an odmap module imports is used in that module or re-exported
through its ``__all__``; the package ``__init__`` imports only to re-export."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "odmap"


def unused_imports(source: str) -> list:
    """(line, name) of each name the module imports and never loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:  # `import a.b` binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_a_leftover_import():
    source = ("from __future__ import annotations\nimport numpy as np\nimport scipy.sparse\n"
              "from .geometry import cross2, split_quad\nfrom .domains import unit_disk\n"
              "__all__ = ['unit_disk']\n\ndef f(u, v):\n    return np.sum(cross2(u, v)) + scipy.sparse.eye(2)\n")
    assert unused_imports(source) == [(4, "split_quad")]
