"""Command-line front end.

Commands: train, ccs, eval, explain, bench. Exit codes: 0 success,
1 usage or configuration error, 2 runtime failure. All commands honor
--seed; output files are byte-deterministic for a fixed seed, with wall
clock timing kept in a separate log file.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ccs import aols, is_convex_undominated, write_history_csv
from .config import ConfigError, RunConfig, load_config, serialize_config
from .core import Iorm, ValueVector, WeightVector
from .envs import SingleObjectiveView, enumerate_ccs, load_tabular, value_iteration
from .explain import generate_alternatives, render_contrastive, render_policy_statement
from .nets import mlp_to_arrays, policy_from_arrays, policy_to_arrays, read_arrays, write_arrays
from .training import RunArtifacts, evaluate_policy, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_delta_csv(artifacts: RunArtifacts, path: Path) -> None:
    lines = ["update,objective,delta_abs,delta_r"]
    for row in artifacts.metrics:
        lines.append(
            f"{row.update_index},{row.objective_index},{_fmt(row.delta_abs)},{_fmt(row.delta_r)}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_iorm(iorm: Iorm, path: Path) -> None:
    lines = [" ".join(_fmt(w) for w in row.weights) for row in iorm.rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_iorm(path: Path) -> Iorm:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append(WeightVector(tuple(float(tok) for tok in line.split())))
    return Iorm(tuple(rows))


def write_vectors(vectors, path: Path) -> None:
    lines = [" ".join(_fmt(x) for x in v.values) for v in vectors]
    path.write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")


def read_vectors(path: Path) -> list[ValueVector]:
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(ValueVector(tuple(float(tok) for tok in line.split())))
    return out


def save_run(artifacts: RunArtifacts, out_dir: Path, raw_config: dict[str, str], elapsed: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(serialize_config(raw_config), encoding="utf-8")
    write_metrics_csv(artifacts, out_dir / "metrics.csv")
    write_delta_csv(artifacts, out_dir / "delta_r.csv")
    write_iorm(artifacts.iorm, out_dir / "iorm.txt")
    write_vectors(artifacts.ccs.vectors, out_dir / "ccs.txt")
    write_arrays(out_dir / "actor.ckpt", policy_to_arrays(artifacts.actor))
    for k, net in enumerate(artifacts.critics.nets):
        write_arrays(out_dir / f"critic_{k}.ckpt", mlp_to_arrays(net, "critic"))
    (out_dir / "log.txt").write_text(
        f"finished_unix_time={time.time()!r}\nelapsed_seconds={elapsed!r}\n"
        f"updates={len(artifacts.metrics)}\nearly_stopped={artifacts.early_stopped}\n",
        encoding="utf-8",
    )


def load_run(run_dir: Path) -> tuple[dict[str, str], RunConfig]:
    config_path = run_dir / "config.txt"
    if not config_path.exists():
        raise UsageError(f"{run_dir} does not look like a run directory (no config.txt)")
    raw = load_config(config_path)
    return raw, RunConfig.from_dict(raw)


def _eval_table(qa, mean: ValueVector, std: ValueVector) -> str:
    names = [obj.name for obj in qa.objectives]
    width = max(len(n) for n in names)
    lines = []
    for k, name in enumerate(names):
        lines.append(f"{name.ljust(width)}  {mean[k]:.3f} +- {std[k]:.3f}")
    return "\n".join(lines)


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
        _verify_against_grid(result.ccs.vectors, enumerate_ccs(momdp), max(epsilon, 1e-6))
    return 0


def _verify_against_grid(found, grid, tol: float) -> None:
    """Check a coverage set against the weight-grid enumeration.

    The grid can miss vectors that are optimal only between its points, so
    it proves two things, not equality: every grid vector is in the set, and
    every set vector the grid did not find strictly beats all grid vectors
    at some weight.
    """
    def near(v, pool) -> bool:
        return any(float(np.max(np.abs(v.array - u.array))) <= tol for u in pool)

    missing = [v for v in grid if not near(v, found)]
    unconfirmed = [v for v in found if not near(v, grid)]
    dominated = [v for v in unconfirmed if not is_convex_undominated(v, grid)]
    print(f"grid confirmed {len(found) - len(unconfirmed)} of {len(found)} vectors")
    ok = not missing and not dominated
    print("VERIFIED" if ok else "MISMATCH")
    if not ok:
        raise RuntimeError(
            f"verification failed: {len(missing)} grid vectors missing from the set, "
            f"{len(dominated)} set vectors dominated by the grid vectors"
        )


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    raw, run = load_run(run_dir)
    actor = policy_from_arrays(read_arrays(run_dir / "actor.ckpt"))
    seed = args.seed if args.seed is not None else run.trainer.seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    env = run.env_factory()
    mean, std, _ = evaluate_policy(env, actor, args.episodes, run.trainer.discount, rng)
    table = _eval_table(run.qa, mean, std)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    return 0


def cmd_explain(args) -> int:
    run_dir = Path(args.run_dir)
    raw, run = load_run(run_dir)
    if args.config:
        overlay = dict(raw)
        overlay.update(load_config(args.config))
        raw = overlay
        run = RunConfig.from_dict(raw)
    actor = policy_from_arrays(read_arrays(run_dir / "actor.ckpt"))
    seed = args.seed if args.seed is not None else run.trainer.seed
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    env = run.env_factory()
    current, _, _ = evaluate_policy(env, actor, args.episodes, run.trainer.discount, rng)
    library = read_vectors(run_dir / "ccs.txt") if (run_dir / "ccs.txt").exists() else []
    pool = list(library)
    if all(
        float(np.max(np.abs(current.array - v.array))) > 1e-9 for v in pool
    ):
        pool.append(current)
    if not pool:
        raise RuntimeError("empty value library; train or evaluate first")
    blocks = [render_policy_statement(run.qa, current)]
    alternatives = generate_alternatives(pool, current, run.qa, run.explain)
    for alt in alternatives:
        blocks.append(render_contrastive(run.qa, alt, current))
    if not alternatives:
        print("warning: no alternatives found in the value library", file=sys.stderr)
    text = "\n\n".join(blocks) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
    run = RunConfig.from_dict(raw, seed=args.seed)
    trainer = run.trainer
    baseline_index = int(raw.get("bench.objective_index", trainer.objective_count - 1))
    episodes = int(raw.get("bench.episodes", 20))

    multi = train(run.env_factory, trainer)

    single_cfg = replace(
        trainer,
        objective_count=1,
        updates_per_objective=trainer.objective_count * trainer.updates_per_objective,
    )
    single_factory = lambda: SingleObjectiveView(run.env_factory(), baseline_index)
    single = train(single_factory, single_cfg)

    rng = np.random.default_rng(np.random.SeedSequence(trainer.seed))
    env = run.env_factory()
    multi_mean, multi_std, _ = evaluate_policy(env, multi.actor, episodes, trainer.discount, rng)
    rng = np.random.default_rng(np.random.SeedSequence(trainer.seed))
    env = run.env_factory()
    single_mean, single_std, _ = evaluate_policy(env, single.actor, episodes, trainer.discount, rng)

    qa = run.qa
    names = [obj.name for obj in qa.objectives]
    width = max(len(n) for n in names + ["Objective"])
    header = f"{'Objective'.ljust(width)}  {'Single-objective':>22}  {'Multi-objective':>22}"
    lines = [header]
    single_norms = []
    multi_norms = []
    for k, name in enumerate(names):
        s_cell = f"{single_mean[k]:.3f} +- {single_std[k]:.3f}"
        m_cell = f"{multi_mean[k]:.3f} +- {multi_std[k]:.3f}"
        lines.append(f"{name.ljust(width)}  {s_cell:>22}  {m_cell:>22}")
        s_n, m_n = _min_max_normalize(single_mean[k], multi_mean[k])
        single_norms.append(s_n)
        multi_norms.append(m_n)
    table = "\n".join(lines)
    single_score = float(np.mean(single_norms))
    multi_score = float(np.mean(multi_norms))
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
        (out_dir / "bench_table.txt").write_text(table + "\n", encoding="utf-8")
        (out_dir / "bench_summary.txt").write_text(summary, encoding="utf-8")
        save_run(multi, out_dir / "multi", run.raw, 0.0)
        single_raw = dict(run.raw)
        single_raw["trainer.objective_count"] = "1"
        single_raw["env.objective_index"] = str(baseline_index)
        single_raw["trainer.updates_per_objective"] = str(single_cfg.updates_per_objective)
        save_run(single, out_dir / "single", single_raw, 0.0)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="morlkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the multi-objective trainer")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_ccs = sub.add_parser("ccs", help="solve a tabular problem's coverage set")
    p_ccs.add_argument("--momdp", required=True)
    p_ccs.add_argument("--epsilon", type=float, default=1e-6)
    p_ccs.add_argument("--verify", action="store_true")
    p_ccs.add_argument("--out", default=None)
    p_ccs.add_argument("--seed", type=int, default=None)
    p_ccs.set_defaults(func=cmd_ccs)

    p_eval = sub.add_parser("eval", help="evaluate a trained run directory")
    p_eval.add_argument("run_dir")
    p_eval.add_argument("--episodes", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_explain = sub.add_parser("explain", help="emit trade-off explanations for a run")
    p_explain.add_argument("run_dir")
    p_explain.add_argument("--config", default=None)
    p_explain.add_argument("--episodes", type=int, default=10)
    p_explain.add_argument("--seed", type=int, default=None)
    p_explain.add_argument("--out", default=None)
    p_explain.set_defaults(func=cmd_explain)

    p_bench = sub.add_parser("bench", help="compare multi- vs single-objective training")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--seed", type=int, default=None)
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
    except (ConfigError, UsageError) as exc:
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
