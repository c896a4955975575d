from dataclasses import replace

import numpy as np
import pytest

from morlkit import cli
from morlkit.ccs import PartialCcs
from morlkit.cli import main, read_iorm, read_vectors
from morlkit.config import (
    ConfigError,
    RunConfig,
    build_env_factory,
    build_qa_spec,
    load_config,
    parse_config_text,
    serialize_config,
)
from morlkit.envs import random_tabular_momdp, save_tabular

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
        iorm = read_iorm(out / "iorm.txt")
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
        # The weight grid misses 1-2 coverage-set vectors on these instances;
        # each lies between grid weights and beats every grid vector there.
        m = random_tabular_momdp(np.random.default_rng(instance), 5, 3, 3, discount=0.85)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "grid confirmed" in out

    def test_verify_fails_when_a_vector_is_missing(self, tmp_path, capsys, monkeypatch):
        m = random_tabular_momdp(np.random.default_rng(17), 10, 3, 2, discount=0.9)
        path = tmp_path / "m.momdp"
        save_tabular(m, path)
        solve = cli.aols

        def drop_best_first_objective(*args, **kwargs):
            result = solve(*args, **kwargs)
            kept = sorted(result.ccs.vectors, key=lambda v: v[0])[:-1]
            return replace(result, ccs=PartialCcs(tuple(kept), result.ccs.observations))

        monkeypatch.setattr(cli, "aols", drop_best_first_objective)
        assert main(["ccs", "--momdp", str(path), "--verify"]) == 2
        assert "MISMATCH" in capsys.readouterr().out

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
        assert "1 vectors" in out and "delta_max=0.0" in out

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

        pool = rv(run_dir / "ccs.txt")
        if len(pool) >= 2:
            # A multi-point value library yields at least one contrastive block.
            assert len(blocks) >= 2
            assert any(block.startswith("I could") for block in blocks[1:])

    def test_explain_missing_run(self, tmp_path, capsys):
        code = main(["explain", str(tmp_path / "nope"), "--episodes", "1"])
        assert code == 1

    def test_eval_run_dir_without_config(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", str(empty)]) == 1


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


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_vector_io_round_trip(self, tmp_path):
        from morlkit.cli import write_vectors
        from morlkit.core import ValueVector

        vs = [ValueVector((1.25, -3.5)), ValueVector((0.1, 0.2))]
        path = tmp_path / "vectors.txt"
        write_vectors(vs, path)
        assert [v.values for v in read_vectors(path)] == [v.values for v in vs]
