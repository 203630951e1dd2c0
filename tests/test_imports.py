"""Every import in the package and the test suite is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    list((ROOT / "src" / "ntcircle").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def _exported(tree: ast.Module) -> set:
    """Names listed in a literal module-level __all__."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


def unused_imports(source: str) -> list:
    """Names bound by import statements and never read again."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scanner_flags_unused_and_spares_exports():
    src = (
        "import os\nimport numpy as np\nfrom a import b, c\n"
        "__all__ = ['c']\nnp.zeros(1)\n"
    )
    assert unused_imports(src) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
