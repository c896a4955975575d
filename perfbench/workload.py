"""Workload definitions and the closed-loop runner of the morlkit benchmark.

``run.py`` starts this file as a child process, so that the program's
memory use and import time are measured without the benchmark's checking
code (scipy) in the same process:

    python3 perfbench/workload.py --setup WORKLOAD
        import morlkit and build the workload's first inputs; print seconds.
    python3 perfbench/workload.py --workload W --seed N --seconds S --trace 0|1
        run the closed loop; print one JSON record of timings and outputs.

One caller, no threads: each call into morlkit waits for the previous one.
The loop runs whole units (a train call and its explain calls, or one pass
over the AOLS family) until ``--seconds`` have passed and a minimum number
of units is done, so that every run has enough samples for its tail
percentile. Under ``--trace 1`` every unit runs twice on the same inputs,
untraced and then traced, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Locomotion: the headline experiment's shape (4 reward channels, 8 env
# copies x 256 steps = 2048 samples per update); explain settings as in
# scripts/locomotion_bench.py. One update per objective keeps a train call
# short: how long an explain call runs depends on the trained actor (its
# episodes end early when it keeps touching a wall), so a run needs several
# actors for a steady explain median.
LOCOMOTION_CONFIG = {
    "trainer.objective_count": "4",
    "trainer.updates_per_objective": "1",
    "trainer.steps_per_update": "256",
    "trainer.env_copies": "8",
    "trainer.epochs_per_update": "10",
    "trainer.minibatch_size": "64",
    "trainer.discount": "0.99",
    "env.kind": "locomotion",
    "explain.0.increment": "2.0",
    "explain.0.max_value": "100.0",
    "explain.0.max_alternatives": "2",
    "explain.1.increment": "1.0",
    "explain.1.max_value": "100.0",
    "explain.1.max_alternatives": "2",
    "explain.2.increment": "5.0",
    "explain.2.max_value": "400.0",
    "explain.2.max_alternatives": "2",
    "explain.3.increment": "2.0",
    "explain.3.max_value": "100.0",
    "explain.3.max_alternatives": "2",
}

# Treasure grid of acceptance criterion 2: one env copy, one-hot
# observations, episodes of at most 10 steps, 2 critics. Short train calls
# for the same reason as above: an explain call's episodes last 2 to 10
# steps, depending on the actor.
TREASURE_CONFIG = {
    "trainer.objective_count": "2",
    "trainer.updates_per_objective": "5",
    "trainer.steps_per_update": "512",
    "trainer.env_copies": "1",
    "trainer.epochs_per_update": "10",
    "trainer.minibatch_size": "64",
    "trainer.discount": "0.95",
    "env.kind": "treasure",
    "env.width": "3",
    "env.height": "3",
    "env.treasures": "0,2,3.0;2,2,12.0",
    "env.horizon": "10",
}

# kind, inputs, minimum units per run and explain calls per trained actor.
# The minimum sample count fixes each workload's tail percentile.
WORKLOADS = {
    "train_locomotion": {"kind": "train", "config": LOCOMOTION_CONFIG, "min_units": 5, "explains": 10},
    "train_treasure": {"kind": "train", "config": TREASURE_CONFIG, "min_units": 10, "explains": 10},
    "aols_random3": {"kind": "aols", "family": 5, "min_units": 6},
}


def tail_percentile(spec: dict) -> int:
    """Highest whole percentile with at least 10 of the minimum number of
    samples beyond it (nearest rank)."""
    n = spec["min_units"] * spec.get("explains", spec.get("family", 0))
    return max(p for p in range(100) if n - -(-n * p // 100) >= 10)


EXPLAIN_EPISODES = 5
AOLS_EPSILON = 1e-6
# AOLS family: instances random_tabular_momdp(default_rng(i), 5, 3, 3,
# discount=0.85) for i below the family size. Solve times of such
# instances span 0.01-18 s, so a seed-drawn sample of the few instances
# that fit in one run would make the figures depend on the draw; instead
# the seed relabels states, actions and objectives of every instance, which
# changes the inputs but not the problems' difficulty. Each instance is
# solved once per pass, and repeated passes give every instance several
# samples, so the percentiles do not hinge on single noisy solves.
AOLS_SHAPE = (5, 3, 3)
AOLS_DISCOUNT = 0.85


def import_morlkit():
    """Import the checkout's morlkit, never an installed copy."""
    sys.path.insert(0, SRC)
    import morlkit

    if not os.path.abspath(morlkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"morlkit imported from {morlkit.__file__}, not from {SRC}")
    from morlkit import ccs, config, envs, explain, lp, nets, training  # noqa: F401

    return morlkit


def unit_seed(seed: int, unit: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


def aols_family(seed: int, size: int):
    """The seed-relabelled AOLS instances; run.py rebuilds them to check."""
    import numpy as np
    from morlkit.envs import TabularMomdp, random_tabular_momdp

    family = []
    for i in range(size):
        base = random_tabular_momdp(np.random.default_rng(i), *AOLS_SHAPE, discount=AOLS_DISCOUNT)
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        ps = rng.permutation(base.num_states)
        pa = rng.permutation(base.num_actions)
        po = rng.permutation(base.objective_count)
        family.append(
            TabularMomdp(
                base.transitions[ps][:, pa][:, :, ps],
                base.rewards[ps][:, pa][:, :, po],
                base.initial[ps],
                base.discount,
                base.terminal[ps],
            )
        )
    return family


def build_first_inputs(name: str, seed: int):
    spec = WORKLOADS[name]
    if spec["kind"] == "aols":
        return aols_family(seed, spec["family"])
    from morlkit.config import RunConfig

    run = RunConfig.from_dict(dict(spec["config"]), seed=unit_seed(seed, 0))
    return run, run.env_factory()


class AbortCounter(logging.Handler):
    """Counts the warnings morlkit.training logs when it aborts an update."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.actor = 0
        self.critic = 0

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "aborting actor update" in message:
            self.actor += 1
        elif "aborting critic update" in message:
            self.critic += 1


def explain_once(run, actor, library, rng):
    """The `morlkit explain` pipeline on an in-memory run."""
    from morlkit import explain, training

    env = run.env_factory()
    current, _, _ = training.evaluate_policy(env, actor, EXPLAIN_EPISODES, run.trainer.discount, rng)
    pool = list(library)
    if all(max(abs(a - b) for a, b in zip(current.values, v.values)) > 1e-9 for v in pool):
        pool.append(current)
    blocks = [explain.render_policy_statement(run.qa, current)]
    alternatives = explain.generate_alternatives(pool, current, run.qa, run.explain)
    blocks.extend(explain.render_contrastive(run.qa, alt, current) for alt in alternatives)
    return blocks, len(alternatives)


def train_unit(spec, seed: int, unit: int, aborts: AbortCounter) -> dict:
    import numpy as np
    from morlkit import training
    from morlkit.config import RunConfig
    from morlkit.nets import mlp_param_list, policy_param_list

    run = RunConfig.from_dict(dict(spec["config"]), seed=unit_seed(seed, unit))
    cfg = run.trainer
    planned = cfg.objective_count * cfg.updates_per_objective
    out = {"updates": planned, "train_s": 0.0, "samples": 0, "explain_s": [], "explain_failed": 0}
    actor0, critic0 = aborts.actor, aborts.critic
    started = time.perf_counter()
    try:
        art = training.train(run.env_factory, cfg)
    except Exception as exc:  # a failed operation is counted, the loop goes on
        out["train_s"] = time.perf_counter() - started
        out["error"] = repr(exc)
        out["explain_failed"] = spec["explains"]
        return out
    out["train_s"] = time.perf_counter() - started
    out["samples"] = len(art.metrics) * cfg.steps_per_update * cfg.env_copies
    out["completed_updates"] = len(art.metrics)
    out["aborts"] = (aborts.actor - actor0) + (aborts.critic - critic0)

    digest = hashlib.sha256()
    finite = len(art.metrics) == planned
    for k, row in enumerate(art.metrics):
        fields = (*row.mean_returns, row.delta_r, row.clip_fraction, row.approx_kl)
        # delta_abs is +inf on the first update by design: nothing to compare with yet.
        finite &= all(map(math.isfinite, fields)) and (k == 0 or math.isfinite(row.delta_abs))
        digest.update(repr((row.update_index, row.objective_index, row.delta_abs, fields)).encode())
    actor_params = policy_param_list(art.actor)
    for arr in actor_params:
        digest.update(np.ascontiguousarray(arr).tobytes())
    for v in art.ccs.vectors:
        digest.update(repr(v.values).encode())
    finite &= all(bool(np.all(np.isfinite(a))) for a in actor_params)
    finite &= all(bool(np.all(np.isfinite(a))) for net in art.critics.nets for a in mlp_param_list(net))
    out["finite"] = bool(finite)
    out["digest"] = digest.hexdigest()

    for j in range(spec["explains"]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, unit, j]))
        t0 = time.perf_counter()
        try:
            blocks, alternatives = explain_once(run, art.actor, art.ccs.vectors, rng)
            ok = (
                blocks[0].startswith("I aim to")
                and len(blocks) == alternatives + 1
                and all(b.startswith("I could ") for b in blocks[1:])
            )
        except Exception:  # a failed operation is counted, the loop goes on
            ok = False
        out["explain_s"].append(time.perf_counter() - t0)
        out["explain_failed"] += 0 if ok else 1
    return out


def aols_unit(family) -> dict:
    from morlkit import ccs, envs

    solves = []
    for i, m in enumerate(family):
        t0 = time.perf_counter()
        try:
            result = ccs.aols(
                lambda w, m=m: envs.value_iteration(m, w)[1], m.objective_count, AOLS_EPSILON
            )
            entry = {
                "vectors": [list(v.values) for v in result.ccs.vectors],
                "cap": result.hit_iteration_cap,
            }
        except Exception as exc:  # a failed operation is counted, the loop goes on
            entry = {"error": repr(exc)}
        entry["s"] = time.perf_counter() - t0
        entry["instance"] = i
        solves.append(entry)
    return {"solves": solves}


def run_loop(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_morlkit()
    spec = WORKLOADS[name]
    aborts = AbortCounter()
    logging.getLogger("morlkit.training").addHandler(aborts)
    family = aols_family(seed, spec["family"]) if spec["kind"] == "aols" else None

    def unit(k: int) -> dict:
        if family is not None:
            return aols_unit(family)
        return train_unit(spec, seed, k, aborts)

    record: dict = {"units": [], "traced_units": []}
    min_units = 1 if trace else spec["min_units"]
    tracer = None
    untraced_s = traced_s = 0.0
    aborted_traced = 0
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    started = time.perf_counter()
    k = 0
    while k < min_units or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        record["units"].append(unit(k))
        if tracer is not None:
            untraced_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            with tracer:
                twin = unit(k)
            traced_s += time.perf_counter() - t0
            aborted_traced += twin.get("aborts", 0)
            record["traced_units"].append(twin)
        k += 1
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(k, untraced_s, traced_s, aborted_traced)
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return record


def environment() -> dict:
    """Host and library facts printed with every run."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", choices=sorted(WORKLOADS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup:
        t0 = time.perf_counter()
        import_morlkit()
        build_first_inputs(args.setup, args.seed)
        print(repr(time.perf_counter() - t0))
        return 0
    if not args.workload:
        parser.error("one of --setup or --workload is required")
    record = run_loop(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
