"""Every name a module of roughdyn imports is used in that module or listed
in its __all__; `from __future__` imports are exempt.  A stdlib ast check,
so it needs no linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "roughdyn"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain a.b.c starts at the Name a
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_finder():
    src = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from dataclasses import dataclass, field\nfrom x import y\n"
        "__all__ = ['y']\n"
        "np.zeros(os.sep)\n"
        "@dataclass\nclass A:\n    n: int\n"
    )
    assert _unused_imports(src) == ["field"]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
