import dataclasses
from itertools import product

import numpy as np
import pytest

from morlkit import envs
from morlkit.core import WeightVector
from morlkit.envs import (
    DiscreteToBox,
    SingleObjectiveView,
    TabularFormatError,
    TabularMomdp,
    ToyLocomotion,
    TreasureGrid,
    boxed_treasure,
    load_tabular,
    random_tabular_momdp,
    save_tabular,
    treasure_grid_to_tabular,
    value_iteration,
)


def wv(*xs):
    return WeightVector(tuple(float(x) for x in xs))


def step1(env, action, rng):
    """Step a one-copy environment: one action in, that copy's results out."""
    obs, rewards, dones = env.step(np.asarray(action, dtype=float)[None], [rng])
    return obs[0], rewards[0], bool(dones[0])


def onehot(index, size=4):
    action = np.zeros(size)
    action[index] = 1.0
    return action


def single_state_momdp(rewards, gamma):
    return TabularMomdp(
        transitions=np.ones((1, 1, 1)),
        rewards=np.array([[rewards]]),
        initial=np.array([1.0]),
        discount=gamma,
        terminal=np.zeros(1, dtype=bool),
    )


def two_arm_bandit(gamma=0.0):
    # One state, two actions, rewards (1,0) and (0,1).
    return TabularMomdp(
        transitions=np.ones((1, 2, 1)),
        rewards=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
        initial=np.array([1.0]),
        discount=gamma,
        terminal=np.zeros(1, dtype=bool),
    )


class TestTabularMomdp:
    def test_row_stochastic_validation(self):
        with pytest.raises(ValueError):
            TabularMomdp(
                transitions=np.full((1, 1, 1), 0.5),
                rewards=np.zeros((1, 1, 2)),
                initial=np.array([1.0]),
                discount=0.9,
                terminal=np.zeros(1, dtype=bool),
            )

    def test_nan_transitions_rejected(self):
        # Comparisons with NaN are False, so the sign and row-sum checks let it through.
        p = np.full((2, 1, 2), 0.5)
        p[0, 0] = [np.nan, 1.0]
        with pytest.raises(ValueError, match="transitions"):
            TabularMomdp(p, np.zeros((2, 1, 2)), np.array([1.0, 0.0]), 0.9, np.zeros(2, dtype=bool))

    def test_nan_initial_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            TabularMomdp(
                np.full((2, 1, 2), 0.5), np.zeros((2, 1, 2)), np.array([np.nan, 1.0]), 0.9,
                np.zeros(2, dtype=bool),
            )

    def test_caller_arrays_stay_writeable(self):
        # The problem freezes its own copies, not the arrays it was given.
        p, r, d0 = np.full((2, 1, 2), 0.5), np.zeros((2, 1, 2)), np.array([1.0, 0.0])
        terminal = np.zeros(2, dtype=bool)
        m = TabularMomdp(p, r, d0, 0.9, terminal)
        assert all(a.flags.writeable for a in (p, r, d0, terminal))
        assert not any(a.flags.writeable for a in (m.transitions, m.rewards, m.initial, m.terminal))

    def test_terminal_rows_rewritten_absorbing(self):
        m = TabularMomdp(
            transitions=np.array([[[0.0, 1.0]], [[1.0, 0.0]]]),
            rewards=np.ones((2, 1, 2)),
            initial=np.array([1.0, 0.0]),
            discount=0.9,
            terminal=np.array([False, True]),
        )
        assert m.transitions[1, 0, 1] == 1.0
        assert np.all(m.rewards[1] == 0.0)

    def test_deterministic_step(self):
        m = TabularMomdp(
            transitions=np.array([[[0.0, 1.0]], [[0.0, 1.0]]]),
            rewards=np.zeros((2, 1, 2)),
            initial=np.array([1.0, 0.0]),
            discount=0.9,
            terminal=np.array([False, True]),
        )
        env = DiscreteToBox(m)
        rng = np.random.default_rng(0)
        assert env.reset([rng]).tolist() == [[1.0, 0.0]]
        nxt, reward, done = step1(env, [1.0], rng)
        assert nxt.tolist() == [0.0, 1.0] and done

    def test_invalid_action_errors(self):
        # A continuous action must have one component per discrete action.
        env = DiscreteToBox(two_arm_bandit())
        rng = np.random.default_rng(0)
        env.reset([rng])
        with pytest.raises(ValueError):
            step1(env, np.ones(5), rng)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        m = random_tabular_momdp(rng, 5, 3, 2, discount=0.85)
        path = tmp_path / "problem.momdp"
        save_tabular(m, path)
        loaded = load_tabular(path)
        assert np.array_equal(loaded.transitions, m.transitions)
        assert np.array_equal(loaded.rewards, m.rewards)
        assert np.array_equal(loaded.initial, m.initial)
        assert loaded.discount == m.discount
        assert np.array_equal(loaded.terminal, m.terminal)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.momdp"
        path.write_text("nonsense\n")
        with pytest.raises(TabularFormatError):
            load_tabular(path)

    @staticmethod
    def _edited_file(tmp_path, edit):
        # 2 states, 2 actions, 2 objectives: lines 1-4 are the version,
        # header, initial and terminal lines, 5-8 transition rows, 9-12 rewards.
        m = random_tabular_momdp(np.random.default_rng(10), 2, 2, 2, discount=0.85)
        path = tmp_path / "problem.momdp"
        save_tabular(m, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def test_short_reward_row_names_line(self, tmp_path):
        # One value on a 2-objective reward row used to load as that value twice.
        path = self._edited_file(tmp_path, lambda lines: lines[:-1] + ["0.5"])
        with pytest.raises(TabularFormatError, match=r":12: reward row should hold 2 values, got 1"):
            load_tabular(path)

    @pytest.mark.parametrize("line", [2, 3, 4, 5, 12])
    def test_extra_token_names_line(self, tmp_path, line):
        def edit(lines):
            lines[line - 1] += " 1"
            return lines

        with pytest.raises(TabularFormatError, match=f":{line}: "):
            load_tabular(self._edited_file(tmp_path, edit))

    def test_truncated_header_names_line(self, tmp_path):
        path = self._edited_file(tmp_path, lambda lines: lines[:1] + ["2 2"] + lines[2:])
        with pytest.raises(TabularFormatError, match=r":2: header"):
            load_tabular(path)

    def test_invalid_problem_is_format_error(self, tmp_path):
        path = self._edited_file(tmp_path, lambda lines: lines[:-1] + ["nan 0.5"])
        with pytest.raises(TabularFormatError, match="rewards must be finite"):
            load_tabular(path)


def policy_iteration_problem(objectives):
    """A problem with the given objective count, or a treasure grid with
    tied paths, and weights to solve it at: the simplex extrema, then 8
    Dirichlet draws."""
    if objectives == "tie-grid":
        treasures = ((0, 3, 2.0), (2, 3, 6.0), (3, 3, 15.0), (3, 0, 4.0))
        grid = TreasureGrid(width=4, height=4, treasures=treasures, horizon=12)
        m = treasure_grid_to_tabular(grid, 0.95)
    else:
        m = random_tabular_momdp(np.random.default_rng(objectives), 6, 3, objectives, 0.9)
    rng = np.random.default_rng(7)
    weights = [np.eye(m.objective_count)[k] for k in range(m.objective_count)]
    weights += list(rng.dirichlet(np.ones(m.objective_count), size=8))
    return m, [WeightVector(tuple(w)) for w in weights]


class TestValueIteration:
    def test_geometric_series(self):
        m = single_state_momdp([1.0, 2.0], gamma=0.5)
        _, value = value_iteration(m, wv(0.5, 0.5))
        assert value.values == pytest.approx((2.0, 4.0), abs=1e-10)

    def test_bandit_argmax(self):
        m = two_arm_bandit(gamma=0.0)
        policy, value = value_iteration(m, wv(0.9, 0.1))
        assert policy[0] == 0
        assert value.values == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_scalarize_first_oracle(self):
        # Oracle: run scalar value iteration on pre-scalarized rewards.
        rng = np.random.default_rng(99)
        m = random_tabular_momdp(rng, 10, 3, 3, discount=0.9)
        w = wv(0.2, 0.5, 0.3)
        _, value = value_iteration(m, w)
        r_w = m.rewards @ w.array
        v = np.zeros(10)
        for _ in range(4000):
            v_new = np.max(r_w + m.discount * (m.transitions @ v), axis=1)
            if np.max(np.abs(v_new - v)) < 1e-14:
                v = v_new
                break
            v = v_new
        scalar_opt = float(m.initial @ v)
        assert float(w.array @ value.array) == pytest.approx(scalar_opt, abs=1e-8)

    def test_bellman_residual_contract(self):
        rng = np.random.default_rng(5)
        m = random_tabular_momdp(rng, 8, 2, 2, discount=0.95)
        w = wv(0.6, 0.4)
        _, value = value_iteration(m, w)
        # Fixed point check happens inside; re-verify the scalar value here.
        policy, _ = value_iteration(m, w)
        r_w = m.rewards @ w.array
        idx = np.arange(m.num_states)
        p_pi = m.transitions[idx, policy]
        v_pi = np.linalg.solve(np.eye(m.num_states) - m.discount * p_pi, r_w[idx, policy])
        assert float(w.array @ value.array) == pytest.approx(
            float(m.initial @ v_pi), abs=1e-9
        )

    def test_large_rewards_scale_the_value(self):
        # The residual bound scales with |q| as the switching threshold does;
        # an absolute 1e-8 bound failed on round-off in 3, 235 and 985 of
        # these 1,000 solves at the three scales.
        weights = np.random.default_rng(0).dirichlet(np.ones(3), size=200)
        for i in range(5):
            m = random_tabular_momdp(np.random.default_rng(i), 5, 3, 3, discount=0.85)
            for w in map(WeightVector, map(tuple, weights)):
                want = w.array @ value_iteration(m, w)[1].array
                for scale in (5e6, 1e7, 1e9):
                    scaled = dataclasses.replace(m, rewards=scale * m.rewards)
                    got = w.array @ value_iteration(scaled, w)[1].array
                    assert got == pytest.approx(scale * want, rel=1e-15), (i, scale)

    def test_weight_dimension_checked(self):
        m = two_arm_bandit()
        with pytest.raises(ValueError):
            value_iteration(m, wv(1.0))

    @pytest.mark.parametrize("objectives", [2, 3, 4, "tie-grid"])
    def test_each_policy_evaluated_once(self, monkeypatch, objectives):
        # Policy iteration evaluates the start policy, then one policy per
        # improvement step; the last evaluation gives the returned value.
        m, weights = policy_iteration_problem(objectives)
        evaluate = envs._evaluate_policy_channels
        seen = []

        def recording(m, policy):
            seen.append(policy.copy())
            return evaluate(m, policy)

        monkeypatch.setattr(envs, "_evaluate_policy_channels", recording)
        for w in weights:
            seen.clear()
            policy, value = value_iteration(m, w)
            distinct = {p.tobytes() for p in seen}
            assert len(distinct) == len(seen)
            steps = sum(not np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
            assert len(seen) == steps + 1
            assert np.array_equal(seen[-1], policy)
            assert value.values == tuple(m.initial @ evaluate(m, policy))

    @pytest.mark.parametrize("objectives", [2, 3, 4, "tie-grid"])
    def test_each_policy_solved_once_per_problem(self, monkeypatch, objectives):
        # A policy's values do not depend on the weight, so the problem
        # object solves each policy once over all the weights it is asked.
        m, weights = policy_iteration_problem(objectives)
        evaluate, solve = envs._evaluate_policy_channels, np.linalg.solve
        seen, solved = [], []

        def recording(m, policy):
            seen.append(policy.tobytes())
            return evaluate(m, policy)

        monkeypatch.setattr(envs, "_evaluate_policy_channels", recording)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(1) or solve(a, b))
        results = [value_iteration(m, w) for w in weights]
        assert len(solved) == len(set(seen)) < len(seen)
        solved.clear()
        policy, value = value_iteration(m, weights[-1])
        assert solved == []
        assert np.array_equal(policy, results[-1][0]) and value == results[-1][1]
        # A fresh problem from the same arrays gives the same bits.
        fresh = TabularMomdp(m.transitions, m.rewards, m.initial, m.discount, m.terminal)
        for w, (policy, value) in zip(weights, results):
            again, again_value = value_iteration(fresh, w)
            assert np.array_equal(again, policy) and again_value.values == value.values
        memo = evaluate(m, policy)
        assert memo is evaluate(m, policy)
        with pytest.raises(ValueError):
            memo[0, 0] = 1.0
        # replace builds a new problem with an empty memo.
        scaled = dataclasses.replace(m, rewards=3.0 * m.rewards)
        for w, (_, value) in zip(weights, results):
            got = value_iteration(scaled, w)[1].values
            assert got == pytest.approx(tuple(3.0 * x for x in value.values), rel=1e-12, abs=1e-12)


class TestTreasureGrid:
    def test_step_onto_treasure(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 1, 5.0),), horizon=10)
        env = boxed_treasure(grid)
        rng = np.random.default_rng(0)
        env.reset([rng])
        obs, reward, done = step1(env, onehot(1), rng)
        assert obs.tolist() == [0.0, 1.0, 0.0]  # cell (0, 1)
        assert tuple(reward) == (5.0, -1.0)
        assert done

    def test_horizon_termination(self):
        grid = TreasureGrid(width=2, height=1, treasures=((0, 1, 5.0),), horizon=2)
        env = boxed_treasure(grid)
        rng = np.random.default_rng(0)
        env.reset([rng])
        _, _, done = step1(env, onehot(0), rng)  # bump into wall
        assert not done
        _, _, done = step1(env, onehot(0), rng)
        assert done

    def test_off_grid_moves_stay(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        assert grid.move(0, 0, 0) == (0, 0)  # up against edge
        assert grid.move(0, 0, 3) == (0, 0)  # left against edge
        assert grid.move(0, 0, 1) == (0, 1)

    def test_invalid_action_errors(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        with pytest.raises(ValueError):
            grid.move(0, 0, 7)
        env = boxed_treasure(grid)
        rng = np.random.default_rng(0)
        env.reset([rng])
        with pytest.raises(ValueError):
            step1(env, np.ones(7), rng)

    @pytest.mark.parametrize("start", [(0, 5), (5, 5), (-1, 0), (2, 0)])
    def test_start_must_lie_on_grid(self, start):
        # Row-major cell indexing would map (0, 5) on a 3-wide grid to cell (1, 2).
        with pytest.raises(ValueError, match="start cell"):
            TreasureGrid(width=3, height=2, treasures=((1, 1, 1.0),), start=start)

    def test_tabular_conversion_consistent_with_session(self):
        # The table follows the grid's rules, and the boxed grid steps by it.
        grid = TreasureGrid(width=3, height=2, treasures=((1, 2, 4.0),), horizon=8)
        m = treasure_grid_to_tabular(grid, discount=0.9)
        for row, col, action in product(range(grid.height), range(grid.width), range(4)):
            s = grid.cell_index(row, col)
            assert m.terminal[s] == (grid.treasure_value(row, col) is not None)
            if m.terminal[s]:
                continue  # absorbing, and never stepped within an episode
            nxt = grid.move(row, col, action)
            assert m.transitions[s, action].tolist() == onehot(grid.cell_index(*nxt), grid.num_cells).tolist()
            value = grid.treasure_value(*nxt)
            assert tuple(m.rewards[s, action]) == (value or 0.0, grid.step_penalty)
        env = boxed_treasure(grid)
        rng = np.random.default_rng(1)
        env.reset([rng])
        cell = grid.start
        for t, action in enumerate((1, 1, 2)):
            obs, reward, done = step1(env, onehot(action), rng)
            cell = grid.move(*cell, action)
            value = grid.treasure_value(*cell)
            assert int(np.argmax(obs)) == grid.cell_index(*cell)
            assert tuple(reward) == (value or 0.0, grid.step_penalty)
            assert done == (value is not None)
        assert cell == (1, 2) and done


class TestToyLocomotion:
    def test_null_action_from_rest(self):
        env = ToyLocomotion(start_noise=0.0, survive_bonus=1.5)
        env.reset([np.random.default_rng(0)])
        _, reward, done = step1(env, np.zeros(2), np.random.default_rng(0))
        assert tuple(reward) == (0.0, 0.0, 1.5, 0.0)
        assert not done

    def test_reward_signs(self):
        env = ToyLocomotion(start_noise=0.0)
        rng = np.random.default_rng(1)
        env.reset([rng])
        for _ in range(50):
            _, reward, done = step1(env, rng.uniform(-2, 2, 2), rng)
            assert reward[0] <= 0.0  # control cost
            assert reward[1] <= 0.0  # contact cost
            assert reward[2] in (0.0, env.survive_bonus)
            if done:
                break

    def test_action_clamped(self):
        env = ToyLocomotion(start_noise=0.0)
        env.reset([np.random.default_rng(0)])
        _, reward, _ = step1(env, np.array([10.0, 0.0]), np.random.default_rng(0))
        assert reward[0] == pytest.approx(-1.0)  # |clip(10)|^2 = 1

    def test_sustained_contact_terminates(self):
        env = ToyLocomotion(start_noise=0.0, half_width=0.05, contact_limit=3, horizon=500)
        env.reset([np.random.default_rng(0)])
        done = False
        steps = 0
        while not done and steps < 500:
            _, reward, done = step1(env, np.array([1.0, 0.0]), np.random.default_rng(0))
            steps += 1
        assert done and steps < 500
        assert reward[2] == 0.0  # no survive bonus on the dying step

    def test_horizon_targets_full_bonus(self):
        env = ToyLocomotion(start_noise=0.0, horizon=4)
        env.reset([np.random.default_rng(0)])
        bonuses = []
        for _ in range(4):
            _, reward, done = step1(env, np.zeros(2), np.random.default_rng(0))
            bonuses.append(reward[2])
        assert done
        assert bonuses == [1.0, 1.0, 1.0, 1.0]

    def test_episode_within_horizon(self):
        env = ToyLocomotion(horizon=30)
        rng = np.random.default_rng(2)
        env.reset([rng])
        for step in range(30):
            _, reward, done = step1(env, rng.uniform(-1, 1, 2), rng)
            assert len(reward) == 4
            if done:
                break
        assert done


class TestSettingsChecked:
    """Each environment checks its own settings, for config and library
    callers alike; the message starts with the rejected field."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: ToyLocomotion(start_noise=float("nan")), "start_noise"),
            (lambda: ToyLocomotion(survive_bonus=float("inf")), "survive_bonus"),
            (lambda: ToyLocomotion(half_width=-1.0), "half_width"),
            (lambda: ToyLocomotion(half_width=float("inf")), "half_width"),
            (lambda: ToyLocomotion(horizon=0), "horizon"),
            (lambda: ToyLocomotion(contact_limit=0), "contact_limit"),
            (lambda: DiscreteToBox(two_arm_bandit(), horizon=0), "horizon"),
            (lambda: TreasureGrid(3, 3, ((0, 2, 1.0),), step_penalty=float("nan")), "step_penalty"),
            (lambda: TreasureGrid(3, 3, ((0, 2, float("nan")),)), "treasures"),
            (lambda: TreasureGrid(3, 3, ((0, 3, 1.0),)), "treasures"),
            (lambda: TreasureGrid(3, 3, ((0, 2, 1.0), (0, 2, 2.0))), "treasures"),
            (lambda: TreasureGrid(3, 3, ((0, 0, 1.0),)), "treasures"),
            (lambda: TreasureGrid(width=0), "width"),
            (lambda: TreasureGrid(height=0), "height"),
            (lambda: TreasureGrid(horizon=0), "horizon"),
            (lambda: SingleObjectiveView(ToyLocomotion(), 4), "objective_index"),
        ],
        ids=[
            "nan-start-noise", "infinite-survive-bonus", "negative-half-width",
            "infinite-half-width", "locomotion-zero-horizon", "zero-contact-limit",
            "boxed-zero-horizon", "nan-step-penalty", "nan-treasure-value", "treasure-off-grid",
            "treasure-cell-twice", "treasure-on-start", "zero-width", "zero-height",
            "grid-zero-horizon", "objective-index-out-of-range",
        ],
    )
    def test_rejected_setting_named_first(self, make, field):
        with pytest.raises(ValueError, match=rf"^{field} "):
            make()


class TestAdapters:
    def test_boxed_tabular_one_hot_and_argmax(self):
        m = two_arm_bandit(gamma=0.0)
        env = DiscreteToBox(m)
        rng = np.random.default_rng(0)
        obs = env.reset([rng])
        assert obs.shape == (1, 1)
        nxt, reward, _ = step1(env, np.array([0.2, 0.9]), rng)  # argmax -> action 1
        assert tuple(reward) == (0.0, 1.0)

    def test_boxed_treasure_observation(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        env = boxed_treasure(grid)
        obs = env.reset([np.random.default_rng(0)] * 3)
        assert obs.shape == (3, 4)
        assert np.all(obs[:, 0] == 1.0) and np.all(obs.sum(axis=1) == 1.0)

    def test_single_objective_view(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=9)
        env = SingleObjectiveView(boxed_treasure(grid), 1)
        rng = np.random.default_rng(0)
        env.reset([rng])
        _, reward, _ = step1(env, np.array([0.0, 1.0, 0.0, 0.0]), rng)
        assert reward.shape == (1,)
        assert reward[0] == -1.0
        with pytest.raises(ValueError):
            SingleObjectiveView(boxed_treasure(grid), 5)

    def test_boxed_tabular_horizon_ends_episodes(self):
        rng = np.random.default_rng(2)
        env = DiscreteToBox(random_tabular_momdp(rng, 4, 2, 2), horizon=3)
        env.reset([rng] * 2)
        dones = [env.step(np.eye(2), [rng] * 2)[2] for _ in range(3)]
        assert not dones[0].any() and not dones[1].any() and dones[2].all()

    def test_reward_length_matches_declared(self):
        rng = np.random.default_rng(1)
        m = random_tabular_momdp(rng, 4, 2, 3, discount=0.9)
        env = DiscreteToBox(m)
        env.reset([rng] * 2)
        for _ in range(10):
            _, reward, _ = env.step(rng.standard_normal((2, 2)), [rng] * 2)
            assert reward.shape == (2, env.objective_count)


def stochastic_tabular(seed=4):
    """Random 6-state problem with two terminal states and a spread-out start."""
    base = random_tabular_momdp(np.random.default_rng(seed), 6, 3, 2, discount=0.9)
    terminal = np.zeros(6, dtype=bool)
    terminal[[2, 5]] = True
    initial = np.array([0.4, 0.3, 0.0, 0.2, 0.1, 0.0])
    return TabularMomdp(base.transitions, base.rewards, initial, 0.9, terminal)


BATCHED_ENVS = {
    "locomotion": lambda: ToyLocomotion(horizon=25, half_width=0.3, contact_limit=3),
    "treasure": lambda: boxed_treasure(
        TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=6)
    ),
    "tabular": lambda: DiscreteToBox(stochastic_tabular()),
    "single-objective-view": lambda: SingleObjectiveView(ToyLocomotion(horizon=25, half_width=0.3), 3),
}


class TestBatchedStepping:
    @pytest.mark.parametrize("kind", sorted(BATCHED_ENVS))
    def test_copies_match_one_copy_envs(self, kind):
        # C copies stepped together against C one-copy environments on the
        # same per-copy generators, finished copies restarting in both.
        copies, steps = 5, 60
        batched = BATCHED_ENVS[kind]()
        singles = [BATCHED_ENVS[kind]() for _ in range(copies)]
        rngs = [np.random.default_rng(k) for k in range(copies)]
        single_rngs = [np.random.default_rng(k) for k in range(copies)]
        action_rng = np.random.default_rng(99)
        obs = batched.reset(rngs)
        single_obs = np.concatenate([env.reset([r]) for env, r in zip(singles, single_rngs)])
        assert np.array_equal(obs, single_obs)
        episodes = 0
        for _ in range(steps):
            actions = 2.0 * action_rng.standard_normal((copies, batched.action_dim))
            obs, rewards, dones = batched.step(actions, rngs)
            for c, (env, r) in enumerate(zip(singles, single_rngs)):
                one_obs, one_reward, one_done = env.step(actions[c : c + 1], [r])
                assert np.array_equal(obs[c], one_obs[0])
                assert np.array_equal(rewards[c], one_reward[0])
                assert dones[c] == one_done[0]
                if one_done[0]:
                    assert np.array_equal(batched.reset(rngs, [c])[0], env.reset([r])[0])
            episodes += int(dones.sum())
        assert episodes >= copies  # the restart path ran
        assert [r.random() for r in rngs] == [r.random() for r in single_rngs]

    def test_tabular_draws_as_rng_choice(self):
        # The reference walks the problem with rng.choice; the boxed problem
        # must visit the same states and leave the generator in the same place.
        m = stochastic_tabular()
        env = DiscreteToBox(m)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        action_rng = np.random.default_rng(8)
        obs = env.reset([rng])[0]
        state = ref_rng.choice(m.num_states, p=m.initial)
        for _ in range(200):
            assert int(np.argmax(obs)) == state
            action = int(action_rng.integers(m.num_actions))
            obs, reward, done = step1(env, onehot(action, m.num_actions), rng)
            assert np.array_equal(reward, m.rewards[state, action])
            state = ref_rng.choice(m.num_states, p=m.transitions[state, action])
            assert done == m.terminal[state]
            if done:
                obs = env.reset([rng])[0]
                state = ref_rng.choice(m.num_states, p=m.initial)
        assert rng.random() == ref_rng.random()
