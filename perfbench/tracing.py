"""In-memory span tracing of calls into morlkit, installed from outside.

A traced function is replaced by a wrapper that records one span per call:
name, start, end and the span that was open when it was called. Spans are
kept in flat arrays and turned into per-layer figures when the run ends;
a layer's self time is its spans' duration minus the part covered by child
spans.

morlkit modules import each other's functions by name (``training`` binds
``mlp_forward``, ``aols`` and others; ``ccs`` binds ``solve_lp``), so a
wrapper is installed on every morlkit module attribute that refers to the
traced function, not only on the module that defines it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name). Attributes with a dot are class methods.
TARGETS = (
    ("training", "train", "training.train"),
    ("training", "collect_rollout", "training.collect_rollout"),
    ("training", "critic_update", "training.critic_update"),
    ("training", "ppo_actor_update", "training.ppo_actor_update"),
    ("training", "iorm_row_select", "training.iorm_row_select"),
    ("training", "evaluate_policy", "training.evaluate_policy"),
    ("nets", "mlp_forward", "nets.mlp_forward"),
    ("nets", "mlp_backward", "nets.mlp_backward"),
    ("nets", "adam_step", "nets.adam_step"),
    ("nets", "gaussian_log_prob_with_cache", "nets.gaussian_log_prob_with_cache"),
    ("nets", "gaussian_log_prob_backward", "nets.gaussian_log_prob_backward"),
    ("nets", "mlp_from_param_list", "nets.mlp_from_param_list"),
    ("nets", "policy_from_param_list", "nets.policy_from_param_list"),
    ("envs", "ToyLocomotion.step", "envs.step"),
    ("envs", "DiscreteToBox.step", "envs.step"),
    ("envs", "ToyLocomotion.reset", "envs.reset"),
    ("envs", "DiscreteToBox.reset", "envs.reset"),
    ("envs", "value_iteration", "envs.value_iteration"),
    ("ccs", "aols", "ccs.aols"),
    ("ccs", "corner_weights", "ccs.corner_weights"),
    ("ccs", "optimistic_bound", "ccs.optimistic_bound"),
    ("ccs", "scalarized_max", "ccs.scalarized_max"),
    ("ccs", "is_convex_undominated", "ccs.is_convex_undominated"),
    ("lp", "solve_lp", "lp.solve_lp"),
    ("explain", "generate_alternatives", "explain.generate_alternatives"),
    ("explain", "render_policy_statement", "explain.render"),
    ("explain", "render_contrastive", "explain.render"),
)

# Calls made from the body of train() that only maintain the coverage set
# and relationship matrix.
BOOKKEEPING = ("ccs.aols", "training.iorm_row_select", "ccs.is_convex_undominated", "ccs.scalarized_max")

SHARE_LAYERS = (
    "training.train",
    "training.collect_rollout",
    "training.critic_update",
    "training.ppo_actor_update",
    "training.evaluate_policy",
    "nets.mlp_forward",
    "nets.mlp_backward",
    "nets.adam_step",
    "nets.gaussian_log_prob_with_cache",
    "nets.gaussian_log_prob_backward",
    "nets.mlp_from_param_list",
    "nets.policy_from_param_list",
    "envs.step",
    "envs.value_iteration",
    "ccs.aols",
    "ccs.corner_weights",
    "ccs.optimistic_bound",
    "ccs.scalarized_max",
    "ccs.is_convex_undominated",
    "lp.solve_lp",
    "explain.generate_alternatives",
    "explain.render",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SHARE_LAYERS:
        units[f"{name}.share"] = "frac"
        units[f"{name}.self_share"] = "frac"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "envs.reset.calls": "count",
            "nets.mlp_forward.rows_per_call": "rows",
            "training.ccs_bookkeeping.share": "frac",
            "training.ccs_bookkeeping.calls": "count",
            "training.aborted_updates": "count",
            "ccs.aols.iterations": "count",
            "ccs.aols.insert_ratio": "frac",
            "ccs.corner_weights.corners": "count",
            "ccs.optimistic_bound.useful_ratio": "frac",
            "trace.overhead_frac": "frac",
            "trace.program_s": "s",
            "trace.units": "count",
            "trace.spans": "count",
        }
    )
    return units


class Tracer:
    """Span recorder plus the counters that hooks fill in at call return."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._bounded: list[tuple[float, ...]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Hooks that count work items at the layer boundary.
    def _rows(self, args, result) -> None:
        x = args[1]
        self.counters["mlp_rows"] += x.shape[0] if np.ndim(x) == 2 else 1

    def _corners(self, args, result) -> None:
        self.counters["corners"] += len(result)

    def _bound(self, args, result) -> None:
        self._bounded.append(args[1].weights)

    def _aols(self, args, result) -> None:
        self.counters["aols_iterations"] += len(result.history)
        self.counters["aols_inserts"] += sum(1 for it in result.history if it.inserted)
        explored = {w.weights for w in result.explored_weights}
        self.counters["bounds_queried"] += sum(1 for w in self._bounded if w in explored)
        self.counters["bounds"] += len(self._bounded)
        self._bounded.clear()

    def install(self) -> None:
        """Wrap every target on every morlkit module that binds it."""
        hooks = {
            "nets.mlp_forward": self._rows,
            "ccs.corner_weights": self._corners,
            "ccs.optimistic_bound": self._bound,
            "ccs.aols": self._aols,
        }
        modules = [m for key, m in sys.modules.items() if key.startswith("morlkit.")]
        for module_name, attr, span in TARGETS:
            home = sys.modules[f"morlkit.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self.wrap(span, original, hooks.get(span)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(span, original, hooks.get(span))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self, units: int, untraced_s: float, traced_s: float, aborted: int) -> dict[str, float]:
        """Per-layer figures per traced unit. Shares are of the program time,
        the summed duration of the top-level spans: ``share`` counts a
        layer's whole spans, ``self_share`` only the part not covered by
        child spans."""
        n = len(self.start)
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        width = max(len(self.names), 1)
        total_time = np.bincount(ids, weights=dur, minlength=width)
        self_time = np.bincount(ids, weights=dur - covered, minlength=width)
        calls = np.bincount(ids, minlength=width)
        program_s = float(dur[~nested].sum())
        per_program_s = 1.0 / program_s if program_s else 0.0

        def by_name(table, name):
            return float(table[self._ids[name]]) if name in self._ids else 0.0

        out: dict[str, float] = {}
        for name in SHARE_LAYERS:
            out[f"{name}.share"] = by_name(total_time, name) * per_program_s
            out[f"{name}.self_share"] = by_name(self_time, name) * per_program_s
            out[f"{name}.calls"] = by_name(calls, name) / units
        out["envs.reset.calls"] = by_name(calls, "envs.reset") / units
        fwd_calls = by_name(calls, "nets.mlp_forward")
        out["nets.mlp_forward.rows_per_call"] = self.counters["mlp_rows"] / fwd_calls if fwd_calls else 0.0

        train_id = self._ids.get("training.train", -1)
        book_ids = [self._ids[b] for b in BOOKKEEPING if b in self._ids]
        in_book = np.isin(ids, book_ids) & nested
        in_book[in_book] = ids[parent[in_book]] == train_id
        out["training.ccs_bookkeeping.share"] = float(dur[in_book].sum()) * per_program_s
        out["training.ccs_bookkeeping.calls"] = float(in_book.sum()) / units
        out["training.aborted_updates"] = aborted / units

        c = self.counters
        aols_calls = by_name(calls, "ccs.aols")
        corner_calls = by_name(calls, "ccs.corner_weights")
        out["ccs.aols.iterations"] = c["aols_iterations"] / aols_calls if aols_calls else 0.0
        out["ccs.aols.insert_ratio"] = c["aols_inserts"] / c["aols_iterations"] if c["aols_iterations"] else 0.0
        out["ccs.corner_weights.corners"] = c["corners"] / corner_calls if corner_calls else 0.0
        out["ccs.optimistic_bound.useful_ratio"] = c["bounds_queried"] / c["bounds"] if c["bounds"] else 0.0
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        out["trace.program_s"] = program_s / units
        out["trace.units"] = float(units)
        out["trace.spans"] = n / units
        return out
