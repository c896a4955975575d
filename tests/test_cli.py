from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morlkit import cli, nets
from morlkit.ccs import PartialCcs
from morlkit.cli import VectorFileError, main, read_vectors
from morlkit.config import (
    ConfigError,
    RunConfig,
    build_bench_settings,
    build_env_factory,
    build_qa_spec,
    build_trainer_config,
    load_config,
    parse_config_text,
    serialize_config,
)
from morlkit.core import Iorm, ValueVector, WeightVector
from morlkit.envs import (
    TabularMomdp,
    TreasureGrid,
    random_tabular_momdp,
    save_tabular,
    treasure_grid_to_tabular,
)
from morlkit.training import TrainerConfig, evaluate_policy

TREASURE_CFG = """\
seed=3
trainer.objective_count=2
trainer.updates_per_objective=2
trainer.steps_per_update=96
trainer.env_copies=2
trainer.epochs_per_update=2
trainer.minibatch_size=32
trainer.discount=0.95
env.kind=treasure
env.width=3
env.height=3
env.treasures=0,2,3.0;2,2,12.0
env.horizon=10
"""


def write_cfg(tmp_path, text=TREASURE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def edit_array(lines, name, replace_values):
    """Checkpoint lines with one array's value line replaced by the lines
    replace_values returns; no lines drops the array's header as well."""
    k = next(k for k, line in enumerate(lines) if line.startswith(f"array {name} "))
    new = replace_values(lines[k + 1])
    return lines[:k] + (lines[k : k + 1] + new if new else []) + lines[k + 2 :]


class TestConfigParsing:
    def test_round_trip_lossless(self):
        parsed = parse_config_text(TREASURE_CFG)
        again = parse_config_text(serialize_config(parsed))
        assert parsed == again

    def test_line_precise_error(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_text("a=1\nbroken line\n", source="inline")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2\n")

    def test_comments_and_blanks_skipped(self):
        parsed = parse_config_text("# comment\n\na=1\n")
        assert parsed == {"a": "1"}

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="trainer.objective_count"):
            RunConfig.from_dict({"env.kind": "treasure"})

    def test_bad_value_names_key(self):
        cfg = parse_config_text(TREASURE_CFG)
        cfg["trainer.discount"] = "fast"
        with pytest.raises(ConfigError, match="trainer.discount"):
            RunConfig.from_dict(cfg)

    def test_trainer_defaults_come_from_trainer_config(self):
        cfg = {"trainer.objective_count": "2", "trainer.updates_per_objective": "3"}
        assert build_trainer_config(cfg) == TrainerConfig(objective_count=2, updates_per_objective=3)

    def test_unknown_trainer_key_still_loads(self):
        cfg = parse_config_text(TREASURE_CFG)
        # trainer.aols_epsilon was a key of earlier versions.
        with_dropped_key = RunConfig.from_dict(dict(cfg, **{"trainer.aols_epsilon": "0.1"}))
        assert with_dropped_key.trainer == RunConfig.from_dict(cfg).trainer

    def test_every_unread_key_named_and_retired_keys_not(self):
        extra = {
            "sead": "4", "trainer.learnig_rate": "0.5",
            "trainer.aols_epsilon": "0.1", "trainer.aols_iteration_cap": "50",
        }
        cfg = dict(parse_config_text(TREASURE_CFG), **extra)
        with pytest.raises(ConfigError, match=r"^config keys 'sead', 'trainer\.learnig_rate': "):
            RunConfig.from_dict(cfg)

    def test_trainer_seed_key_points_to_seed(self):
        # The trainer's seed comes from the top-level key; a trainer.seed key
        # would otherwise be dropped and the run would use the default seed.
        cfg = dict(parse_config_text(TREASURE_CFG), **{"trainer.seed": "5"})
        with pytest.raises(ConfigError, match=r"'trainer\.seed'.*top-level key 'seed'"):
            RunConfig.from_dict(cfg)

    @pytest.mark.parametrize("name", ["treasure.cfg", "locomotion.cfg"])
    def test_committed_configs_load(self, name):
        raw = load_config(Path(__file__).resolve().parent.parent / "configs" / name)
        run = RunConfig.from_dict(raw)
        build_bench_settings(raw, run.trainer.objective_count)
        assert run.trainer.seed == 0

    def test_unknown_env_kind(self):
        cfg = parse_config_text(TREASURE_CFG)
        cfg["env.kind"] = "mars"
        with pytest.raises(ConfigError, match="env.kind"):
            build_env_factory(cfg)

    def test_default_qa_for_locomotion(self):
        qa = build_qa_spec({"env.kind": "locomotion"}, 4)
        assert [o.name for o in qa.objectives] == ["Rctrl", "Rcont", "Rsurv", "Rfor"]


class TestCmdTrain:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_writes_run_directory(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in (
            "config.txt",
            "metrics.csv",
            "delta_r.csv",
            "iorm.txt",
            "ccs.txt",
            "actor.ckpt",
            "critic_0.ckpt",
            "critic_1.ckpt",
            "log.txt",
        ):
            assert (out / name).exists(), name
        rows = np.loadtxt(out / "iorm.txt", ndmin=2)
        iorm = Iorm(tuple(WeightVector(tuple(row)) for row in rows))
        assert iorm.dim == 2
        header = (out / "metrics.csv").read_text().splitlines()
        assert header[0] == "# morlkit-metrics v1"
        assert header[1].startswith("update,objective,mean_return_0")

    def test_single_objective_treasure_iorm_is_one(self, tmp_path):
        text = TREASURE_CFG.replace(
            "trainer.objective_count=2", "trainer.objective_count=1"
        ) + "env.objective_index=0\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "run1"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        content = (out / "iorm.txt").read_text().strip()
        assert float(content) == 1.0

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "delta_r.csv", "iorm.txt", "ccs.txt", "actor.ckpt",
                     "critic_0.ckpt", "critic_1.ckpt", "config.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestCmdCcs:
    def test_verified_on_random_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(17)
        m = random_tabular_momdp(rng, 10, 3, 2, discount=0.9)
        path = tmp_path / "random.momdp"
        save_tabular(m, path)
        code = main(["ccs", "--momdp", str(path), "--epsilon", "1e-6", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out

    @pytest.mark.parametrize("instance", [0, 1, 2, 13, 17, 18, 19])
    def test_verified_where_grid_misses_vectors(self, tmp_path, capsys, instance):
        # A 51-point-per-side weight grid misses 1-2 coverage-set vectors on
        # these instances; each is optimal only between grid weights.
        m = random_tabular_momdp(np.random.default_rng(instance), 5, 3, 3, discount=0.85)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "coverage gap " in out

    def test_verified_where_vectors_tie(self, tmp_path, capsys):
        # The exact planner also returns (1.805, -2.8525) on this grid; it
        # ties (3.61, -2.8525) at w = (0, 1) and wins nowhere, so AOLS drops it.
        grid = TreasureGrid(
            width=4, height=4, treasures=((0, 3, 2.0), (2, 3, 6.0), (3, 3, 15.0), (3, 0, 4.0)), horizon=12
        )
        path = tmp_path / "grid.momdp"
        save_tabular(treasure_grid_to_tabular(grid, 0.95), path)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "coverage set (2 vectors)" in out and "VERIFIED" in out
        assert "1.805000" not in out

    def test_verify_fails_when_a_vector_is_missing(self, tmp_path, capsys, monkeypatch):
        m = random_tabular_momdp(np.random.default_rng(17), 10, 3, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        solve = cli.aols

        def drop_best_first_objective(*args, **kwargs):
            result = solve(*args, **kwargs)
            kept = sorted(result.ccs.vectors, key=lambda v: v[0])[:-1]
            return replace(result, ccs=PartialCcs(tuple(kept)))

        monkeypatch.setattr(cli, "aols", drop_best_first_objective)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 2
        assert "MISMATCH" in capsys.readouterr().out

    def test_verify_fails_when_a_vector_is_dominated(self, tmp_path, capsys, monkeypatch):
        # The set still covers every weight, so only the dominance test fails.
        m = random_tabular_momdp(np.random.default_rng(17), 10, 3, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        solve = cli.aols

        def add_dominated(*args, **kwargs):
            result = solve(*args, **kwargs)
            below = ValueVector(tuple(result.ccs.vectors[0].array - 0.5))
            return replace(result, ccs=PartialCcs(result.ccs.vectors + (below,)))

        monkeypatch.setattr(cli, "aols", add_dominated)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 2
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out and "1 vectors dominated" in captured.err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:-1] + ["nan 0.5"], "rewards must be finite"),
            (lambda lines: lines[:1] + ["2 2"] + lines[2:], ":2: header"),
            (lambda lines: lines[:-1] + ["0.5"], ":12: reward row"),
        ],
        ids=["nan", "truncated-header", "short-row"],
    )
    def test_rejected_problem_file_exits_1(self, tmp_path, capsys, edit, message):
        m = random_tabular_momdp(np.random.default_rng(10), 2, 2, 2, discount=0.85)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert main(["ccs", "--momdp", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_verify_four_objectives(self, tmp_path, capsys):
        m = random_tabular_momdp(np.random.default_rng(0), 5, 2, 4, discount=0.85)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_seed_is_usage_error(self, tmp_path, capsys):
        # AOLS draws no random numbers, so ccs takes no --seed.
        m = random_tabular_momdp(np.random.default_rng(4), 6, 2, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        assert main(["ccs", "--momdp", str(path), "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
    def test_bad_epsilon_is_usage_error(self, tmp_path, capsys, monkeypatch, epsilon):
        def no_solve(*args, **kwargs):
            raise AssertionError("AOLS started")

        monkeypatch.setattr(cli, "aols", no_solve)
        m = random_tabular_momdp(np.random.default_rng(4), 6, 2, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        assert main(["ccs", "--momdp", str(path), "--epsilon", epsilon]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "argument --epsilon" in err

    def test_constant_reward_single_vector(self, tmp_path, capsys):
        m_path = tmp_path / "const.momdp"
        import numpy as np

        from morlkit.envs import TabularMomdp

        m = TabularMomdp(
            transitions=np.ones((1, 1, 1)),
            rewards=np.array([[[1.0, 2.0]]]),
            initial=np.array([1.0]),
            discount=0.5,
            terminal=np.zeros(1, dtype=bool),
        )
        save_tabular(m, m_path)
        code = main(["ccs", "--momdp", str(m_path), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 vectors" in out and "delta_max=0.0" in out and "VERIFIED" in out

    def test_history_dump(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_tabular_momdp(rng, 6, 2, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        out_dir = tmp_path / "ccs_out"
        assert main(["ccs", "--momdp", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "ccs_vectors.txt").exists()
        history = (out_dir / "ccs_history.csv").read_text().splitlines()
        assert history[0] == "iteration,w0,w1,delta_r"


class TestCmdEvalExplain:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_eval_deterministic_table(self, run_dir, capsys):
        assert main(["eval", str(run_dir), "--episodes", "3", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["eval", str(run_dir), "--episodes", "3", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "+-" in first

    def test_shared_evaluation_matches_eval_table(self, run_dir, capsys):
        # eval, explain and both bench evaluations go through cli._evaluate:
        # evaluate_policy on a fresh env, seeded with the given seed or else
        # the run's.
        run = cli.load_run(run_dir)
        actor = cli.load_actor(run_dir, run)
        mean, std, returns = cli._evaluate(run, actor, 3, 7)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        direct = evaluate_policy(run.env_factory(), actor, 3, run.trainer.discount, rng)
        assert np.array_equal(returns, direct[2])
        assert main(["eval", str(run_dir), "--episodes", "3", "--seed", "7"]) == 0
        assert capsys.readouterr().out == cli._eval_table(run.qa, mean, std) + "\n"
        own_seed = cli._evaluate(run, actor, 3, run.trainer.seed)[2]
        assert np.array_equal(cli._evaluate(run, actor, 3, None)[2], own_seed)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"explain.0.increment": "nan"}, "explain.0.increment"),
            ({"explain.1.max_value": "nan"}, "explain.1.max_value"),
            (
                {"env.kind": "locomotion", "trainer.objective_count": "4", "env.half_width": "0"},
                "env.half_width",
            ),
            ({"explain.0.increment": "-1"}, "explain.0.increment"),
            ({"qa.0.name": "treasure", "qa.1.name": "time", "qa.1.direction": "up"}, "qa.1.direction"),
            ({"qa.0.name": "treasure", "qa.1.name": "treasure"}, "qa.1.name"),
            ({"explain.0.incremnt": "2"}, "explain.0.incremnt"),
        ],
        ids=[
            "nan-increment", "nan-max-value", "zero-half-width", "negative-increment",
            "qa-unknown-direction", "qa-duplicate-name", "misspelt-explain-key",
        ],
    )
    def test_rejected_overlay_exits_1(self, run_dir, tmp_path, capsys, monkeypatch, overrides, key):
        monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: pytest.fail("evaluation started"))
        overlay = write_cfg(tmp_path, with_keys("", overrides), name="overlay.cfg")
        assert main(["explain", str(run_dir), "--config", str(overlay)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def test_eval_single_episode_zero_std(self, run_dir, capsys):
        assert main(["eval", str(run_dir), "--episodes", "1"]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert line.endswith("+- 0.000")

    def test_explain_writes_blocks(self, run_dir, tmp_path, capsys):
        target = tmp_path / "explanation.txt"
        overlay = tmp_path / "explain.cfg"
        overlay.write_text(
            "explain.0.increment=0.25\nexplain.0.max_value=50\nexplain.0.max_alternatives=2\n"
            "explain.1.increment=0.25\nexplain.1.max_value=50\nexplain.1.max_alternatives=2\n"
        )
        assert main(
            ["explain", str(run_dir), "--config", str(overlay),
             "--episodes", "2", "--out", str(target)]
        ) == 0
        text = target.read_text()
        assert text.startswith("I aim to maximize")
        blocks = text.strip().split("\n\n")
        from morlkit.cli import read_vectors as rv

        pool = rv(run_dir / "ccs.txt", 2)
        if len(pool) >= 2:
            # A multi-point value library yields at least one contrastive block.
            assert len(blocks) >= 2
            assert any(block.startswith("I could") for block in blocks[1:])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1.0 2.0\n1.0 abc\n", ":2: could not convert string to float: 'abc'"),
            ("1.0 2.0\n\n3.0\n", ":3: row has 1 values, expected 2"),
            ("1.0 nan\n", ":1: ValueVector entries must be finite"),
        ],
        ids=["non-number", "short-row", "nan"],
    )
    def test_rejected_value_library_exits_1(self, run_dir, capsys, text, message):
        path = run_dir / "ccs.txt"
        path.write_text(text)
        with pytest.raises(VectorFileError, match=message):
            read_vectors(path, 2)
        assert main(["explain", str(run_dir), "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{path}{message}" in err

    def test_overlay_outside_explain_and_qa_exits_1(self, run_dir, tmp_path, capsys, monkeypatch):
        # The actor was trained on the run's 3x3 treasure grid: an overlay
        # that swaps the environment must not reach evaluation.
        monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: pytest.fail("evaluation started"))
        overrides = {"env.kind": "locomotion", "trainer.objective_count": "4", "explain.0.increment": "2"}
        overlay = write_cfg(tmp_path, with_keys("", overrides), name="overlay.cfg")
        assert main(["explain", str(run_dir), "--config", str(overlay)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'env.kind'" in err and "'trainer.objective_count'" in err
        assert "explain.0.increment" not in err

    def test_value_library_of_another_width_exits_1(self, run_dir, capsys):
        path = run_dir / "ccs.txt"
        path.write_text("1.0 2.0 3.0\n4.0 5.0 6.0\n")
        assert main(["explain", str(run_dir), "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}:1: row has 3 values, expected 2" in err

    def test_explain_missing_run(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "nope"), "--episodes", "1"])
        assert code == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: edit_array(lines, "actor.mean.w0", lambda v: [v.rsplit(" ", 1)[0]]),
                "array 'actor.mean.w0' should hold",
            ),
            (lambda lines: lines[:-1], "array 'actor.mean.w2' has no value line"),
            (
                lambda lines: edit_array(lines, "actor.mean.w0", lambda v: ["nan " + v.split(" ", 1)[1]]),
                "array 'actor.mean.w0' has non-finite values",
            ),
            (
                lambda lines: edit_array(lines, "actor.log_std", lambda v: []),
                "array 'actor.log_std' is missing",
            ),
        ],
        ids=["short-line", "truncated", "nan", "no-log-std"],
    )
    def test_rejected_checkpoint_exits_1(self, run_dir, capsys, edit, message):
        path = run_dir / "actor.ckpt"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert main(["eval", str(run_dir), "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and message in err

    @staticmethod
    def replace_actor(run_dir, sizes):
        """Overwrite the run's actor with a valid checkpoint of the given
        layer sizes."""
        actor = nets.GaussianPolicyParams(nets.mlp_init(sizes, np.random.default_rng(0)), np.zeros(sizes[-1]))
        nets.write_arrays(run_dir / "actor.ckpt", nets.policy_to_arrays(actor))

    @pytest.mark.parametrize("command", ["eval", "explain"])
    @pytest.mark.parametrize("sizes", [[3, 8, 4], [9, 8, 3]], ids=["3-inputs", "3-actions"])
    def test_actor_that_does_not_fit_the_env_exits_1(self, run_dir, tmp_path, capsys, command, sizes):
        # The run's 3x3 treasure grid has 9 observations and 4 actions.
        self.replace_actor(run_dir, sizes)
        out = tmp_path / "out.txt"
        assert main([command, str(run_dir), "--episodes", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / 'actor.ckpt'}: ")
        assert f"{sizes[0]} inputs and gives {sizes[-1]} actions" in err
        assert "9 observations and 4 actions" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_actor_that_fits_the_env_exits_0(self, run_dir, tmp_path, command):
        self.replace_actor(run_dir, [9, 5, 4])
        out = tmp_path / "out.txt"
        assert main([command, str(run_dir), "--episodes", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_eval_run_dir_without_config(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", str(empty)]) == 1


class DiskFull:
    """File handle that writes the first half of the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def disk_full_for(name):
    """An open() whose writes to paths containing name fail halfway."""
    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        writing = "w" in (args[0] if args else kwargs.get("mode", "r"))
        return DiskFull(fh) if writing and name in str(path) else fh

    return failing_open


class TestAtomicWrites:
    def test_failed_write_leaves_no_partial_checkpoint(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(nets, "open", disk_full_for("actor.ckpt"), raising=False)
        with pytest.raises(OSError, match="no space left"):
            nets.write_arrays(out / "actor.ckpt", {"x": np.arange(1000.0)})
        assert main(["train", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after["actor.ckpt"] == before["actor.ckpt"]
        assert set(after) == set(before)  # no temporary files left behind
        assert nets.read_arrays(out / "actor.ckpt")

        fresh = tmp_path / "fresh"
        assert main(["train", "--config", str(cfg), "--out", str(fresh)]) == 2
        assert not (fresh / "actor.ckpt").exists()
        assert not [p for p in fresh.iterdir() if "actor" in p.name]

    def test_failed_write_leaves_no_partial_ccs_history(self, tmp_path, monkeypatch):
        m = random_tabular_momdp(np.random.default_rng(4), 6, 2, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        out = tmp_path / "ccs_out"
        # Any writer of the history file fails halfway, whichever open it calls.
        monkeypatch.setattr("builtins.open", disk_full_for("ccs_history.csv"))
        assert main(["ccs", "--momdp", str(path), "--out", str(out)]) == 2
        assert (out / "ccs_vectors.txt").exists()
        assert not [p for p in out.iterdir() if "ccs_history" in p.name]


class TestCmdBench:
    def test_bench_smoke(self, tmp_path, capsys):
        text = TREASURE_CFG + "bench.objective_index=0\nbench.episodes=2\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "winner=" in stdout
        assert (out / "bench_table.txt").exists()
        assert (out / "bench_summary.txt").exists()
        assert (out / "multi" / "metrics.csv").exists()
        assert (out / "single" / "metrics.csv").exists()
        table = (out / "bench_table.txt").read_text()
        assert "Single-objective" in table and "Multi-objective" in table

    def test_equal_scores_are_a_tie(self, tmp_path):
        # Criterion 10's run: both policies score (2.850, -1.950), so both
        # normalized means are 0.5 and neither policy wins.
        cfg = write_cfg(tmp_path, with_keys(TREASURE_CFG, CRITERION_10))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "bench_summary.txt").read_text() == (
            "normalized_mean_single=0.5\nnormalized_mean_multi=0.5\nwinner=tie\n"
        )

    def test_single_config_describes_the_baseline_run(self, tmp_path):
        cfg = write_cfg(tmp_path, TREASURE_CFG + "bench.episodes=2\n")
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rerun = tmp_path / "rerun"
        assert main(["train", "--config", str(out / "single" / "config.txt"), "--out", str(rerun)]) == 0
        for name in ("config.txt", "metrics.csv", "delta_r.csv", "ccs.txt", "actor.ckpt", "critic_0.ckpt"):
            assert (rerun / name).read_bytes() == (out / "single" / name).read_bytes(), name

    def test_baseline_config_holds_only_its_own_keys(self, tmp_path):
        extra = {**QA_NAMES, "explain.1.increment": "2", "bench.objective_index": "1", "bench.episodes": "2"}
        cfg = write_cfg(tmp_path, with_keys(TREASURE_CFG, extra))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        single = load_config(out / "single" / "config.txt")
        assert not [key for key in single if key.startswith(("bench.", "explain.", "qa."))]
        assert main(["eval", str(out / "single"), "--episodes", "2"]) == 0


def with_keys(text, overrides):
    """Config text with the given keys replaced or added."""
    lines = [line for line in text.splitlines() if line.split("=", 1)[0] not in overrides]
    return "\n".join(lines + [f"{k}={v}" for k, v in overrides.items()]) + "\n"


LOCOMOTION = {"env.kind": "locomotion", "trainer.objective_count": "4"}
CRITERION_10 = {
    "seed": "12", "trainer.updates_per_objective": "3", "trainer.steps_per_update": "128",
    "trainer.env_copies": "1", "trainer.epochs_per_update": "3",
}
QA_NAMES = {"qa.0.name": "treasure", "qa.1.name": "time"}


class TestRejectedInputExits1:
    @pytest.mark.parametrize(
        "command, overrides, key",
        [
            ("train", {"env.treasures": "0,5,3.0;2,2,12.0"}, "env.treasures"),
            ("train", {"env.horizon": "0"}, "env.horizon"),
            (
                "train",
                {"env.kind": "locomotion", "env.objective_index": "7", "trainer.objective_count": "1"},
                "env.objective_index",
            ),
            ("train", {"trainer.objective_count": "3"}, "trainer.objective_count"),
            ("bench", {"trainer.objective_count": "3"}, "trainer.objective_count"),
            ("bench", {"bench.episodes": "abc"}, "bench.episodes"),
            ("bench", {"bench.episodes": "0"}, "bench.episodes"),
            ("bench", {"bench.objective_index": "9"}, "bench.objective_index"),
            ("train", {"env.start": "5,5"}, "env.start"),
            ("train", {"env.start": "0,5"}, "env.start"),
            ("train", {"env.step_penalty": "nan"}, "env.step_penalty"),
            ("train", {"env.treasures": "0,2,nan;2,2,12.0"}, "env.treasures"),
            (
                "train",
                {"env.kind": "locomotion", "env.survive_bonus": "inf", "trainer.objective_count": "4"},
                "env.survive_bonus",
            ),
            ("train", {"trainer.learning_rate": "nan"}, "trainer.learning_rate"),
            ("train", {"trainer.learning_rate": "inf"}, "trainer.learning_rate"),
            ("train", {"trainer.clip_epsilon": "nan"}, "trainer.clip_epsilon"),
            ("bench", {"trainer.clip_epsilon": "inf"}, "trainer.clip_epsilon"),
            ("train", {"trainer.termination_epsilon": "nan"}, "trainer.termination_epsilon"),
            ("train", {"trainer.termination_epsilon": "inf"}, "trainer.termination_epsilon"),
            ("train", {"trainer.hidden_sizes": "-3"}, "trainer.hidden_sizes"),
            ("train", {"trainer.hidden_sizes": "0,8"}, "trainer.hidden_sizes"),
            ("train", {"explain.0.increment": "nan"}, "explain.0.increment"),
            ("train", {"explain.1.max_value": "nan"}, "explain.1.max_value"),
            ("train", {**LOCOMOTION, "env.horizon": "0"}, "env.horizon"),
            ("train", {**LOCOMOTION, "env.contact_limit": "0"}, "env.contact_limit"),
            ("train", {**LOCOMOTION, "env.half_width": "0"}, "env.half_width"),
            ("bench", {**LOCOMOTION, "env.half_width": "-1"}, "env.half_width"),
            ("bench", {"env.objective_index": "0"}, "env.objective_index"),
            ("bench", {"env.objective_index": "0", "trainer.objective_count": "1"}, "env.objective_index"),
            ("train", {**QA_NAMES, "qa.1.direction": "up"}, "qa.1.direction"),
            ("train", {**QA_NAMES, "qa.1.precision": "-2"}, "qa.1.precision"),
            ("train", {"qa.0.name": ""}, "qa.0.name"),
            ("bench", {"qa.0.name": "cost", "qa.1.name": "cost"}, "qa.1.name"),
            ("train", {"explain.0.increment": "-1"}, "explain.0.increment"),
            ("train", {"explain.1.max_alternatives": "0"}, "explain.1.max_alternatives"),
            ("train", {"trainer.seed": "5"}, "trainer.seed"),
            ("train", {"trainer.learnig_rate": "0.5"}, "trainer.learnig_rate"),
            ("train", {"env.widht": "7"}, "env.widht"),
            ("train", {"sead": "4"}, "sead"),
            ("train", {"qa.1.name": "time"}, "qa.1.name"),
            ("train", {"explain.2.increment": "2"}, "explain.2.increment"),
            ("train", {"env.path": "m.momdp"}, "env.path"),
            ("bench", {"bench.episode": "3"}, "bench.episode"),
        ],
        ids=[
            "treasure-outside-grid", "zero-horizon", "objective-index-out-of-range",
            "objective-count-mismatch", "bench-objective-count-mismatch",
            "bench-episodes-not-a-number", "bench-zero-episodes", "bench-objective-index-out-of-range",
            "start-outside-grid", "start-past-row-end", "nan-step-penalty", "nan-treasure-value",
            "infinite-survive-bonus", "nan-learning-rate", "infinite-learning-rate",
            "nan-clip-epsilon", "bench-infinite-clip-epsilon", "nan-termination-epsilon",
            "infinite-termination-epsilon", "negative-hidden-size", "zero-width-hidden-layer",
            "nan-explain-increment", "nan-explain-max-value", "locomotion-zero-horizon",
            "locomotion-zero-contact-limit", "locomotion-zero-half-width",
            "bench-locomotion-negative-half-width", "bench-sets-objective-index",
            "bench-sets-objective-index-single-channel", "qa-unknown-direction",
            "qa-negative-precision", "qa-empty-name", "bench-qa-duplicate-name",
            "negative-explain-increment", "zero-explain-max-alternatives",
            "trainer-seed-key", "misspelt-trainer-key", "misspelt-env-key", "misspelt-top-level-key",
            "qa-name-without-qa-0", "explain-past-objective-count", "key-of-another-env-kind",
            "misspelt-bench-key",
        ],
    )
    def test_config_rejected_before_training(self, tmp_path, capsys, monkeypatch, command, overrides, key):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        cfg = write_cfg(tmp_path, with_keys(TREASURE_CFG, overrides))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err

    def tabular_run(self, tmp_path, extra="", m=None):
        """A run trained on m, by default a 4-state random problem, which has
        no terminal state."""
        if m is None:
            m = random_tabular_momdp(np.random.default_rng(5), 4, 2, 2, discount=0.9)
        save_tabular(m, tmp_path / "m.momdp")
        text = with_keys(
            TREASURE_CFG,
            {"env.kind": "tabular", "env.path": str(tmp_path / "m.momdp"), "trainer.steps_per_update": "32"},
        )
        treasure_only = ("env.horizon", "env.width", "env.height", "env.treasures")
        text = "\n".join(line for line in text.splitlines() if not line.startswith(treasure_only))
        cfg = write_cfg(tmp_path, text + "\n" + extra)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        return cfg, run_dir

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_endless_tabular_episodes_need_a_horizon(self, tmp_path, capsys, command):
        _, run_dir = self.tabular_run(tmp_path)
        capsys.readouterr()
        assert main([command, str(run_dir), "--episodes", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'env.horizon'" in err

    def test_reachable_terminal_still_needs_a_horizon(self, tmp_path, capsys, monkeypatch):
        # A chain whose terminal state 2 only action 1 moves towards: a
        # policy whose mean action is 0 loops forever, so eval must refuse
        # to start without a horizon.
        transitions = np.zeros((3, 2, 3))
        transitions[:, 0] = np.eye(3)
        transitions[[0, 1, 2], 1, [1, 2, 2]] = 1.0
        rewards = np.zeros((3, 2, 2))
        rewards[:, 0] = (1.0, 0.0)
        rewards[:, 1] = (0.0, 0.1)
        terminal = np.array([False, False, True])
        chain = TabularMomdp(transitions, rewards, np.array([1.0, 0.0, 0.0]), 0.9, terminal)
        _, run_dir = self.tabular_run(tmp_path, m=chain)
        monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: pytest.fail("evaluation started"))
        capsys.readouterr()
        assert main(["eval", str(run_dir), "--episodes", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'env.horizon'" in err

    def test_bench_on_endless_tabular_episodes_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg, _ = self.tabular_run(tmp_path)
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training started"))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg)]) == 1
        assert "'env.horizon'" in capsys.readouterr().err

    def test_tabular_horizon_ends_evaluation_episodes(self, tmp_path, capsys):
        _, run_dir = self.tabular_run(tmp_path, "env.horizon=5\n")
        capsys.readouterr()
        out = tmp_path / "eval.txt"
        assert main(["eval", str(run_dir), "--episodes", "3", "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            mean, _, std = line.split()[1:]
            assert np.isfinite(float(mean)) and np.isfinite(float(std))
        assert main(["explain", str(run_dir), "--episodes", "3"]) == 0

    def test_tabular_horizon_below_one_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="env.horizon"):
            m = random_tabular_momdp(np.random.default_rng(5), 4, 2, 2, discount=0.9)
            save_tabular(m, tmp_path / "m.momdp")
            build_env_factory(
                {"env.kind": "tabular", "env.path": str(tmp_path / "m.momdp"), "env.horizon": "0"}
            )

    @pytest.mark.parametrize("command", ["eval", "explain"])
    def test_zero_episodes_is_usage_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert main([command, str(run_dir), "--episodes", "0"]) == 1
        assert "argument --episodes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench", "eval", "explain"])
    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        cfg = write_cfg(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training started"))
        monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: pytest.fail("evaluation started"))
        target = ["--config", str(cfg)] if command in ("train", "bench") else [str(run_dir)]
        capsys.readouterr()
        assert main([command, *target, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "argument --seed" in err

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_negative_seed_key_names_seed(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("training started"))
        cfg = write_cfg(tmp_path, with_keys(TREASURE_CFG, {"seed": "-2"}))
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'seed': ") and "trainer.seed" not in err

    def test_trainer_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            TrainerConfig(objective_count=1, updates_per_objective=1, seed=-1)


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "run", "--seed", "abc"], "argument --seed: must be an integer, got 'abc'"),
            (["train", "--config", "c", "--seed", "1.5"], "argument --seed: must be an integer, got '1.5'"),
            (["eval", "run", "--episodes", "x"], "argument --episodes: must be an integer, got 'x'"),
            (["ccs", "--momdp", "m", "--epsilon", "abc"], "argument --epsilon: must be a number, got 'abc'"),
        ],
        ids=["seed", "fractional-seed", "episodes", "epsilon"],
    )
    def test_non_number_flag_is_usage_error(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err and "_int" not in err

    def test_vector_io_round_trip(self, tmp_path):
        from morlkit.cli import write_vectors
        from morlkit.core import ValueVector

        vs = [ValueVector((1.25, -3.5)), ValueVector((0.1, 0.2))]
        path = tmp_path / "vectors.txt"
        write_vectors(vs, path)
        assert [v.values for v in read_vectors(path, 2)] == [v.values for v in vs]
