"""The benchmark binds morlkit names that no import of the package checks:
the tracer (perfbench/tracing.py) wraps functions it looks up by name, the
workloads (perfbench/workload.py) import names inside functions, both
read attributes of the results of train and aols, and the explain unit
unpacks evaluate_policy's result and calls the explain API. Changing one
of them would otherwise only show as an AttributeError or ImportError in
the middle of a benchmark run, and so would a traced function whose
arguments no longer fit the tracer's hooks."""

import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from morlkit import ccs, training
from morlkit.ccs import aols
from morlkit.config import RunConfig
from morlkit.envs import random_tabular_momdp, value_iteration
from morlkit.training import train

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOAD = PERFBENCH / "workload.py"


def load_by_path(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracing_targets():
    return load_by_path(TRACING, "perfbench_tracing").TARGETS


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


# Attributes of results that perfbench/workload.py (train_unit, aols_unit)
# and perfbench/tracing.py (Tracer._aols) read. "[*]" applies the rest of
# the path to every element, which must not be empty.
TRAIN_READS = (
    "metrics[*].update_index",
    "metrics[*].objective_index",
    "metrics[*].mean_returns",
    "metrics[*].delta_abs",
    "metrics[*].delta_r",
    "metrics[*].clip_fraction",
    "metrics[*].approx_kl",
    "actor",
    "ccs.vectors[*].values",
    "critics.nets",
)
AOLS_READS = (
    "ccs.vectors[*].values",
    "hit_iteration_cap",
    "history[*].inserted",
    "explored_weights[*].weights",
)


def resolves(obj, path: str) -> bool:
    head, _, rest = path.partition(".")
    name = head.removesuffix("[*]")
    if not hasattr(obj, name):
        return False
    value = getattr(obj, name)
    items = value if head.endswith("[*]") else [value]
    return bool(items) and all(not rest or resolves(item, rest) for item in items)


# The two env kinds the benchmark's train workloads use.
TINY_RUNS = {
    "treasure": {"trainer.objective_count": "2", "env.kind": "treasure", "env.horizon": "10"},
    "locomotion": {"trainer.objective_count": "4", "env.kind": "locomotion", "env.horizon": "20"},
}


@pytest.fixture(scope="module", params=sorted(TINY_RUNS, reverse=True))
def tiny_run(request):
    """A run trained for one short update per objective."""
    run = RunConfig.from_dict(
        {
            "trainer.updates_per_objective": "1",
            "trainer.steps_per_update": "16", "trainer.env_copies": "1",
            "trainer.epochs_per_update": "1", "trainer.minibatch_size": "16",
            **TINY_RUNS[request.param],
        }
    )
    return run, train(run.env_factory, run.trainer)


def test_result_attributes_resolve(tiny_run):
    _, art = tiny_run
    m = random_tabular_momdp(np.random.default_rng(0), 3, 2, 2, discount=0.8)
    result = aols(lambda w: value_iteration(m, w)[1], m.objective_count, 1e-6)
    missing = [f"train: {path}" for path in TRAIN_READS if not resolves(art, path)]
    missing += [f"aols: {path}" for path in AOLS_READS if not resolves(result, path)]
    assert not missing, f"result attributes the benchmark reads are gone: {missing}"


def test_explain_once_runs(tiny_run):
    # perfbench/workload.py's explain unit: a fresh env from run.env_factory(),
    # evaluate_policy's return shape and the explain API as the benchmark
    # calls them.
    run, art = tiny_run
    workload = load_by_path(WORKLOAD, "perfbench_workload")
    rng = np.random.default_rng(0)
    blocks, alternatives = workload.explain_once(run, art.actor, art.ccs.vectors, rng)
    assert blocks[0].startswith("I aim to")
    assert len(blocks) == 1 + alternatives


def wrapped_morlkit_attributes() -> set[str]:
    """Names of morlkit module attributes, and of methods of morlkit
    classes, that carry a __wrapped__ (as tracer wrappers do; so do
    dataclass reprs and class methods)."""
    found = set()
    for key, module in list(sys.modules.items()):
        if key != "morlkit" and not key.startswith("morlkit."):
            continue
        for name, value in vars(module).items():
            if hasattr(value, "__wrapped__"):
                found.add(f"{key}.{name}")
            if isinstance(value, type) and value.__module__ == key:
                found |= {f"{key}.{name}.{m}" for m, fn in vars(value).items() if hasattr(fn, "__wrapped__")}
    return found


def test_traced_run_reports_finite_metrics(tiny_run):
    # What a `--trace 1` benchmark run does: the tracer's hooks read the
    # traced calls' arguments and results (nets.mlp_forward's batch, aols's
    # history), then every wrapper is removed.
    run, _ = tiny_run
    tracing = load_by_path(TRACING, "perfbench_tracing")
    m = random_tabular_momdp(np.random.default_rng(0), 3, 2, 2, discount=0.8)
    untraced = wrapped_morlkit_attributes()
    with tracing.Tracer() as tracer:
        assert "morlkit.nets.mlp_forward" in wrapped_morlkit_attributes() - untraced
        training.train(run.env_factory, run.trainer)
        ccs.aols(lambda w: value_iteration(m, w)[1], m.objective_count, 1e-6)
    metrics = tracer.layer_metrics(1, 1.0, 1.0, 0)
    assert not [name for name, value in metrics.items() if not math.isfinite(value)]
    assert metrics["nets.mlp_forward.calls"] > 0
    assert metrics["nets.mlp_forward.rows_per_call"] > 0
    assert metrics["ccs.aols.calls"] == 1
    assert wrapped_morlkit_attributes() == untraced
