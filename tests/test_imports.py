"""Every name a source or test file imports is used in that file, every
private module-level helper of the package is used somewhere in it, and
every public module-level function and class of the package has a caller
in it or a reason on `UNCALLED_PUBLIC`. The README's library block runs.

A name counts as used when the file loads it (`name` or `name.attr`) or
lists it in `__all__`. `from __future__` imports are exempt. A private
helper is a module-level function, class or assigned name of
`src/morlkit` that starts with `_` and is not a dunder. A helper or a
public name counts as used when package code outside its own definition
names it.
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


def unused_definitions(modules: dict[str, ast.Module]) -> list[tuple[str, str, bool]]:
    """(module, name, is a function or class) of every module-level
    definition that no code of the modules names outside its own definition."""
    definitions: list[tuple[str, str, bool]] = []
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
            callable_ = not isinstance(statement, (ast.Assign, ast.AnnAssign))
            definitions += [(module, name, callable_) for name in sorted(own)]
            for node in ast.walk(statement):
                name = (
                    node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None
                )
                if name is not None and name not in own:
                    used.add(name)
    return [(module, name, callable_) for module, name, callable_ in definitions if name not in used]


def unused_private_helpers(modules: dict[str, ast.Module]) -> list[str]:
    return [
        f"{module}.{name}"
        for module, name, _ in unused_definitions(modules)
        if name.startswith("_") and not name.endswith("__")
    ]


def uncalled_public_names(modules: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions and classes that no code names."""
    return [
        f"{module}.{name}"
        for module, name, callable_ in unused_definitions(modules)
        if callable_ and not name.startswith("_")
    ]


def test_no_unused_private_helpers():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in SOURCES
    }
    assert unused_private_helpers(modules) == []


# Public names that no package code calls, each kept for a reason.
UNCALLED_PUBLIC = {
    "envs.boxed_treasure": "a library entry point that the README lists",
    "envs.random_tabular_momdp": "the benchmark's AOLS workload builds its problems with it",
    "envs.save_tabular": "it writes the problem files that load_tabular reads",
    "nets.policy_from_param_list": "the benchmark's tracer wraps it by name",
    "training.iorm_row_select": "the benchmark's tracer wraps it by name",
}


def test_every_public_name_has_a_caller():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in SOURCES
    }
    assert sorted(uncalled_public_names(modules)) == sorted(UNCALLED_PUBLIC)


def test_detects_an_uncalled_public_name():
    source = (
        "LIMIT = 3\n\n"
        "def solve(p):\n    return solve(p[1:]) if p else _scale(p)\n\n"
        "def _scale(p):\n    return p\n\n"
        "class Result:\n    pass\n\n"
        "class Report:\n    pass\n\n"
        "def render(r):\n    return Report()\n"
    )
    other = "from .a import render\n"
    modules = {"a": ast.parse(source), "b": ast.parse(other)}
    assert uncalled_public_names(modules) == ["a.solve", "a.Result"]
    assert uncalled_public_names({"a": ast.parse(source)}) == ["a.solve", "a.Result", "a.render"]


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


def test_readme_library_block_runs():
    # Removing or renaming a documented name fails here instead of leaving the README wrong.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library entry points\n")[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
