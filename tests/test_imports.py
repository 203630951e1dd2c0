"""Every import in the package and the test suite is used, and so is
every module-level private name of the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ntcircle").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def _private_definitions(tree: ast.Module) -> dict:
    """Module-level private functions, classes and assignments: name -> line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def orphaned_privates(sources: dict) -> list:
    """(module, line, name) of private names nothing in sources reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (mod, line, name)
        for mod, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


def test_private_scanner_flags_orphans():
    sources = {
        "a": "_USED = 1\n_LEFT = 2\n__dunder__ = 3\n"
             "def _helper():\n    return _USED\n"
             "def _dead():\n    pass\nclass _Gone:\n    pass\n",
        "b": "from a import x\nx._helper()\n",
    }
    assert orphaned_privates(sources) == [
        ("a", 2, "_LEFT"), ("a", 6, "_dead"), ("a", 8, "_Gone"),
    ]


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert orphaned_privates(sources) == []
