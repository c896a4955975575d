"""The benchmark binds morlkit names that no import of the package checks:
the tracer (perfbench/tracing.py) wraps functions it looks up by name, and
the workloads (perfbench/workload.py) import names inside functions.
Renaming or deleting one of them would otherwise only show as an
AttributeError or ImportError in the middle of a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD = PERFBENCH / "workload.py"


def tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracing_targets_resolve():
    missing = []
    for module_name, attr, _ in tracing_targets():
        home = importlib.import_module(f"morlkit.{module_name}")
        if "." in attr:
            # The tracer patches methods found in the class's own __dict__.
            cls_name, method = attr.split(".")
            found = method in vars(getattr(home, cls_name, object))
        else:
            found = hasattr(home, attr)
        if not found:
            missing.append(f"morlkit.{module_name}.{attr}")
    assert not missing, f"perfbench/tracing.py targets not found: {missing}"


def test_workload_imports_resolve():
    # Parsed, not loaded: the imports sit inside functions, so loading the
    # file would not resolve them.
    tree = ast.parse(WORKLOAD.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "morlkit"
        for alias in node.names
    ]
    assert any(module != "morlkit" for module, _ in imports), "no morlkit imports found"
    missing = []
    for module, name in imports:
        home = importlib.import_module(module)
        if not hasattr(home, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert not missing, f"perfbench/workload.py imports not found: {missing}"
