"""Command-line front end.

Commands: train, ccs, eval, explain, bench. Exit codes: 0 success,
1 usage, configuration, problem-file, checkpoint-file or vector-file
error, 2 runtime failure. Every command but ccs, which draws no random
numbers, takes --seed; output files are byte-deterministic for a fixed
seed, with wall clock timing kept in a separate log file. Run-directory
files are written atomically. `ccs --verify` checks the coverage set
against the exact planner at the set's corner weights.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .ccs import aols, coverage_gap, pruned, write_history_csv
from .config import (
    ConfigError,
    RunConfig,
    load_config,
    require_episode_end,
    serialize_config,
)
from .core import ValueVector
from .envs import TabularFormatError, load_tabular, value_iteration
from .explain import generate_alternatives, render_contrastive, render_policy_statement
from .nets import (
    CheckpointFormatError,
    mlp_to_arrays,
    policy_from_arrays,
    policy_to_arrays,
    read_arrays,
    read_text,
    write_arrays,
    write_text_atomic,
)
from .training import RunArtifacts, evaluate_policy, train


class UsageError(Exception):
    pass


class VectorFileError(ValueError):
    """A value-vector file line that is not a row of numbers of the
    expected width."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


def _parsed(cast, text: str, kind: str):
    """cast(text), with a non-number reported as an argument error (argparse
    would name the type helper instead)."""
    try:
        return cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _parsed(int, text, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = _parsed(int, text, "an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_finite_float(text: str) -> float:
    value = _parsed(float, text, "a number")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _fmt(x: float) -> str:
    return repr(float(x))


def write_metrics_csv(artifacts: RunArtifacts, path: Path) -> None:
    i_count = artifacts.config.objective_count
    header = (
        ["update", "objective"]
        + [f"mean_return_{k}" for k in range(i_count)]
        + ["delta_abs", "delta_r", "clip_fraction", "approx_kl"]
    )
    lines = ["# morlkit-metrics v1", ",".join(header)]
    for row in artifacts.metrics:
        cells = [str(row.update_index), str(row.objective_index)]
        cells += [_fmt(r) for r in row.mean_returns]
        cells += [_fmt(row.delta_abs), _fmt(row.delta_r), _fmt(row.clip_fraction), _fmt(row.approx_kl)]
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_delta_csv(artifacts: RunArtifacts, path: Path) -> None:
    lines = ["update,objective,delta_abs,delta_r"]
    for row in artifacts.metrics:
        lines.append(
            f"{row.update_index},{row.objective_index},{_fmt(row.delta_abs)},{_fmt(row.delta_r)}"
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_vectors(vectors, path: Path) -> None:
    """One row per value or weight vector, components space-separated."""
    lines = [" ".join(_fmt(x) for x in v) for v in vectors]
    write_text_atomic(path, "\n".join(lines) + "\n" if lines else "")


def read_vectors(path: Path, dim: int) -> list[ValueVector]:
    """Inverse of write_vectors for dim-wide rows; raises VectorFileError
    naming the file and line for a non-number, a non-finite value or a row
    of another width."""
    out: list[ValueVector] = []
    for lineno, line in enumerate(read_text(path, VectorFileError).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            vector = ValueVector(tuple(float(tok) for tok in line.split()))
        except ValueError as exc:
            raise VectorFileError(f"{path}:{lineno}: {exc}") from None
        if vector.dim != dim:
            raise VectorFileError(f"{path}:{lineno}: row has {vector.dim} values, expected {dim}")
        out.append(vector)
    return out


def save_run(artifacts: RunArtifacts, out_dir: Path, raw_config: dict[str, str], elapsed: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_dir / "config.txt", serialize_config(raw_config))
    write_metrics_csv(artifacts, out_dir / "metrics.csv")
    write_delta_csv(artifacts, out_dir / "delta_r.csv")
    write_vectors(artifacts.iorm.rows, out_dir / "iorm.txt")
    write_vectors(artifacts.ccs.vectors, out_dir / "ccs.txt")
    write_arrays(out_dir / "actor.ckpt", policy_to_arrays(artifacts.actor))
    for k, net in enumerate(artifacts.critics.nets):
        write_arrays(out_dir / f"critic_{k}.ckpt", mlp_to_arrays(net, "critic"))
    write_text_atomic(
        out_dir / "log.txt",
        f"finished_unix_time={time.time()!r}\nelapsed_seconds={elapsed!r}\n"
        f"updates={len(artifacts.metrics)}\nearly_stopped={artifacts.early_stopped}\n",
    )


def load_run(run_dir: Path, overlay: dict[str, str] | None = None) -> RunConfig:
    """The run's config, with the overlay's keys replacing its own."""
    config_path = run_dir / "config.txt"
    if not config_path.exists():
        raise UsageError(f"{run_dir} does not look like a run directory (no config.txt)")
    return RunConfig.from_dict({**load_config(config_path), **(overlay or {})})


def load_actor(run_dir: Path, run: RunConfig):
    """The run's actor, checked to fit the run's environment: its input
    and action widths are the environment's observation and action widths."""
    path = run_dir / "actor.ckpt"
    arrays = read_arrays(path)
    try:
        actor = policy_from_arrays(arrays)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from None
    env = run.env_factory()
    if (actor.mean_net.input_dim, actor.action_dim) != (env.observation_dim, env.action_dim):
        raise CheckpointFormatError(
            f"{path}: actor takes {actor.mean_net.input_dim} inputs and gives {actor.action_dim} "
            f"actions, the run's environment has {env.observation_dim} observations and "
            f"{env.action_dim} actions"
        )
    return actor


def _eval_table(qa, mean: ValueVector, std: ValueVector) -> str:
    names = [obj.name for obj in qa.objectives]
    width = max(len(n) for n in names)
    lines = []
    for k, name in enumerate(names):
        lines.append(f"{name.ljust(width)}  {mean[k]:.3f} +- {std[k]:.3f}")
    return "\n".join(lines)


def _evaluate(run: RunConfig, actor, episodes: int, seed: int | None):
    """`evaluate_policy` on a fresh env of the run, at the run's discount,
    drawing from a generator seeded with seed (the run's seed if None)."""
    seed = run.trainer.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return evaluate_policy(run.env_factory(), actor, episodes, run.trainer.discount, rng)


def cmd_train(args) -> int:
    raw = load_config(args.config)
    run = RunConfig.from_dict(raw, seed=args.seed)
    started = time.monotonic()
    artifacts = train(run.env_factory, run.trainer)
    out_dir = Path(args.out) if args.out else Path(f"run_seed{run.trainer.seed}")
    save_run(artifacts, out_dir, run.raw, time.monotonic() - started)
    print(f"run written to {out_dir}")
    last = artifacts.metrics[-1]
    print(f"updates={len(artifacts.metrics)} final_delta_r={last.delta_r:.6f}")
    return 0


def cmd_ccs(args) -> int:
    momdp = load_tabular(args.momdp)
    epsilon = args.epsilon
    oracle = lambda w: value_iteration(momdp, w)[1]
    result = aols(oracle, momdp.objective_count, epsilon)
    print(f"coverage set ({len(result.ccs.vectors)} vectors), delta_max={result.delta_max!r}")
    for v in result.ccs.vectors:
        print("  " + " ".join(f"{x:.6f}" for x in v.values))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_vectors(result.ccs.vectors, out_dir / "ccs_vectors.txt")
        write_history_csv(result, out_dir / "ccs_history.csv")
        print(f"artifacts written to {out_dir}")
    if args.verify:
        _verify(result.ccs.vectors, oracle, max(epsilon, 1e-6))
    return 0


def _verify(vectors, oracle, tol: float) -> None:
    """Check a coverage set against the exact planner: the planner beats
    the set's surface by at most tol at every corner weight, hence at every
    weight (see `coverage_gap`), and every vector beats all the others at
    some weight."""
    gap, weight = coverage_gap(vectors, oracle)
    print(f"coverage gap {gap!r} at weight {' '.join(_fmt(w) for w in weight.weights)}")
    redundant = len(vectors) - len(pruned(vectors))
    ok = gap <= tol and not redundant
    print("VERIFIED" if ok else "MISMATCH")
    if not ok:
        raise RuntimeError(
            f"verification failed: coverage gap {gap!r} (tolerance {tol!r}), "
            f"{redundant} vectors dominated by the others"
        )


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    run = load_run(run_dir)
    require_episode_end(run.raw)
    mean, std, _ = _evaluate(run, load_actor(run_dir, run), args.episodes, args.seed)
    table = _eval_table(run.qa, mean, std)
    print(table)
    if args.out:
        write_text_atomic(args.out, table + "\n")
    return 0


def cmd_explain(args) -> int:
    run_dir = Path(args.run_dir)
    overlay = load_config(args.config) if args.config else {}
    foreign = [repr(key) for key in sorted(overlay) if not key.startswith(("explain.", "qa."))]
    if foreign:  # the actor was trained on the run's environment and objectives
        raise ConfigError(
            f"config keys {', '.join(foreign)}: an explain overlay sets only explain.* and qa.* keys"
        )
    run = load_run(run_dir, overlay)
    require_episode_end(run.raw)
    current, _, _ = _evaluate(run, load_actor(run_dir, run), args.episodes, args.seed)
    library = run_dir / "ccs.txt"
    pool = read_vectors(library, run.trainer.objective_count) if library.exists() else []
    if all(float(np.max(np.abs(current.array - v.array))) > 1e-9 for v in pool):
        pool.append(current)
    blocks = [render_policy_statement(run.qa, current)]
    alternatives = generate_alternatives(pool, current, run.qa, run.explain)
    for alt in alternatives:
        blocks.append(render_contrastive(run.qa, alt, current))
    if not alternatives:
        print("warning: no alternatives found in the value library", file=sys.stderr)
    text = "\n\n".join(blocks) + "\n"
    if args.out:
        write_text_atomic(args.out, text)
        print(f"explanation written to {args.out}")
    else:
        print(text, end="")
    return 0


def _min_max_normalize(a: float, b: float) -> tuple[float, float]:
    lo, hi = min(a, b), max(a, b)
    if hi - lo <= 1e-12:
        return 0.5, 0.5
    return (a - lo) / (hi - lo), (b - lo) / (hi - lo)


def cmd_bench(args) -> int:
    raw = load_config(args.config)
    if "env.objective_index" in raw:
        raise ConfigError(
            "config key 'env.objective_index': bench sets it for its single-objective "
            "baseline; choose that channel with bench.objective_index"
        )
    run = RunConfig.from_dict(raw, seed=args.seed)
    trainer = run.trainer
    baseline_index, episodes = run.bench
    require_episode_end(run.raw)
    # The baseline is the same run on one reward channel, with as many
    # updates. The bench, explain and qa keys describe the multi-objective run.
    single_run = RunConfig.from_dict(
        {
            **{k: v for k, v in run.raw.items() if not k.startswith(("bench.", "explain.", "qa."))},
            "trainer.objective_count": "1",
            "env.objective_index": str(baseline_index),
            "trainer.updates_per_objective": str(trainer.objective_count * trainer.updates_per_objective),
        }
    )

    multi = train(run.env_factory, trainer)
    single = train(single_run.env_factory, single_run.trainer)
    # Both policies are evaluated on every channel of the multi-objective env.
    multi_mean, multi_std, _ = _evaluate(run, multi.actor, episodes, trainer.seed)
    single_mean, single_std, _ = _evaluate(run, single.actor, episodes, trainer.seed)

    qa = run.qa
    names = [obj.name for obj in qa.objectives]
    width = max(len(n) for n in names + ["Objective"])
    lines = [f"{'Objective'.ljust(width)}  {'Single-objective':>22}  {'Multi-objective':>22}"]
    for k, name in enumerate(names):
        s_cell = f"{single_mean[k]:.3f} +- {single_std[k]:.3f}"
        m_cell = f"{multi_mean[k]:.3f} +- {multi_std[k]:.3f}"
        lines.append(f"{name.ljust(width)}  {s_cell:>22}  {m_cell:>22}")
    table = "\n".join(lines)
    norms = [_min_max_normalize(single_mean[k], multi_mean[k]) for k in range(len(names))]
    single_score = float(np.mean([s for s, _ in norms]))
    multi_score = float(np.mean([m for _, m in norms]))
    if multi_score == single_score:
        winner = "tie"
    else:
        winner = "multi" if multi_score > single_score else "single"
    summary = (
        f"normalized_mean_single={single_score!r}\n"
        f"normalized_mean_multi={multi_score!r}\n"
        f"winner={winner}\n"
    )
    print(table)
    print(summary, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out_dir / "bench_table.txt", table + "\n")
        write_text_atomic(out_dir / "bench_summary.txt", summary)
        save_run(multi, out_dir / "multi", run.raw, 0.0)
        save_run(single, out_dir / "single", single_run.raw, 0.0)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="morlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the multi-objective trainer")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=_non_negative_int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_ccs = sub.add_parser("ccs", help="solve a tabular problem's coverage set")
    p_ccs.add_argument("--momdp", required=True)
    p_ccs.add_argument("--epsilon", type=_positive_finite_float, default=1e-6)
    p_ccs.add_argument("--verify", action="store_true")
    p_ccs.add_argument("--out", default=None)
    p_ccs.set_defaults(func=cmd_ccs)

    p_eval = sub.add_parser("eval", help="evaluate a trained run directory")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--episodes", type=_positive_int, default=20)
    p_eval.add_argument("--seed", type=_non_negative_int, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_explain = sub.add_parser("explain", help="emit trade-off explanations for a run")
    p_explain.add_argument("run_dir")
    p_explain.add_argument("--config", default=None)
    p_explain.add_argument("--episodes", type=_positive_int, default=10)
    p_explain.add_argument("--seed", type=_non_negative_int, default=None)
    p_explain.add_argument("--out", default=None)
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser("bench", help="compare multi- vs single-objective training")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seed", type=_non_negative_int, default=None)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CheckpointFormatError, ConfigError, TabularFormatError, UsageError, VectorFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing file {exc.filename}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
