"""The benchmark's tracer (perfbench/tracing.py) wraps morlkit functions that
it looks up by name. Renaming or deleting one of them would otherwise only
show as an AttributeError inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
