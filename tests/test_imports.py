"""Every name a source or test file imports is used in that file, and
every private module-level helper of the package is used somewhere in it.

A name counts as used when the file loads it (`name` or `name.attr`) or
lists it in `__all__`. `from __future__` imports are exempt. A private
helper is a module-level function, class or assigned name of
`src/morlkit` that starts with `_` and is not a dunder; it counts as used
when package code outside its own definition names it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "morlkit").rglob("*.py"))
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\nfrom math import pi, tau\nprint(pi, os.sep)\n")
    assert unused_imports(tree) == ["system (line 2)", "tau (line 3)"]


def unused_private_helpers(modules: dict[str, ast.Module]) -> list[str]:
    definitions: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, tree in modules.items():
        for statement in tree.body:
            own: set[str] = set()
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {statement.name}
            elif isinstance(statement, ast.Assign):
                own = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                own = {statement.target.id}
            definitions += [
                (module, name) for name in sorted(own) if name.startswith("_") and not name.endswith("__")
            ]
            for node in ast.walk(statement):
                name = (
                    node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None
                )
                if name is not None and name not in own:
                    used.add(name)
    return [f"{module}.{name}" for module, name in definitions if name not in used]


def test_no_unused_private_helpers():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in SOURCES
    }
    assert unused_private_helpers(modules) == []


def test_detects_an_unused_private_helper():
    source = (
        "def _improve(q):\n    return _improve(q[1:]) if q else q\n\n"
        "def _evaluate(p):\n    return p\n\n"
        "class _State:\n    pass\n\n"
        "__all__ = ['solve']\n_LIMIT = 3\n_SCALE: float = 2.0\n\n"
        "def solve(p):\n    return _evaluate(p) * _SCALE\n"
    )
    other = "from .a import _State\n"
    modules = {"a": ast.parse(source), "b": ast.parse(other)}
    assert unused_private_helpers(modules) == ["a._improve", "a._LIMIT"]
    assert unused_private_helpers({"a": ast.parse(source)}) == ["a._improve", "a._State", "a._LIMIT"]
