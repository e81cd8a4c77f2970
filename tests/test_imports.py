"""Import hygiene of roughdyn.  Every name a module imports is used in that
module or listed in its __all__ (`from __future__` imports are exempt), by
a stdlib ast check, so it needs no linter; every name in a module's __all__
exists on it; and the library loads no scipy."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_all_names_resolve(path):
    # a stale __all__ entry makes `from roughdyn.<module> import *` raise
    name = "roughdyn" if path.stem == "__init__" else f"roughdyn.{path.stem}"
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


def test_library_import_leaves_scipy_unloaded():
    # the library runs on numpy alone; scipy is a test-only oracle, and
    # loading scipy.special alone more than doubled every CLI start-up
    mods = [f"roughdyn.{p.stem}" for p in sorted(SRC.glob("*.py"))]
    code = (
        f"import sys, {', '.join(mods)}\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        check=True,
    )
    assert res.stdout.strip() == "[]"
