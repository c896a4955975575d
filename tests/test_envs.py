from itertools import product

import numpy as np
import pytest

from morlkit.ccs import is_convex_undominated
from morlkit.core import ValueVector, WeightVector
from morlkit.envs import (
    DiscreteToBox,
    SingleObjectiveView,
    TabularMomdp,
    ToyLocomotion,
    TreasureGrid,
    TreasureGridSession,
    boxed_tabular,
    boxed_treasure,
    enumerate_ccs,
    finite_horizon_values,
    load_tabular,
    random_tabular_momdp,
    save_tabular,
    treasure_grid_to_tabular,
    value_iteration,
)


def wv(*xs):
    return WeightVector(tuple(float(x) for x in xs))


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
        rng = np.random.default_rng(0)
        nxt, reward, done = m.step(0, 0, rng)
        assert nxt == 1 and done

    def test_invalid_action_errors(self):
        m = two_arm_bandit()
        with pytest.raises(ValueError):
            m.step(0, 5, np.random.default_rng(0))

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
        with pytest.raises(ValueError):
            load_tabular(path)


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
        _, value = value_iteration(m, w, tol=1e-8)
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
        _, value = value_iteration(m, w, tol=1e-8)
        # Fixed point check happens inside; re-verify the scalar value here.
        policy, _ = value_iteration(m, w)
        r_w = m.rewards @ w.array
        idx = np.arange(m.num_states)
        p_pi = m.transitions[idx, policy]
        v_pi = np.linalg.solve(np.eye(m.num_states) - m.discount * p_pi, r_w[idx, policy])
        assert float(w.array @ value.array) == pytest.approx(
            float(m.initial @ v_pi), abs=1e-9
        )

    def test_weight_dimension_checked(self):
        m = two_arm_bandit()
        with pytest.raises(ValueError):
            value_iteration(m, wv(1.0))


class TestEnumerateCcs:
    def test_constant_reward_singleton(self):
        m = single_state_momdp([1.0, 2.0], gamma=0.5)
        ccs = enumerate_ccs(m, resolution=100)
        assert len(ccs) == 1
        assert ccs[0].values == pytest.approx((2.0, 4.0), abs=1e-10)

    def test_bandit_both_extremes(self):
        ccs = enumerate_ccs(two_arm_bandit(gamma=0.0), resolution=100)
        values = sorted(v.values for v in ccs)
        assert len(values) == 2
        assert values[0] == pytest.approx((0.0, 1.0), abs=1e-12)
        assert values[1] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        m = random_tabular_momdp(rng, 101, 100, 2)
        with pytest.raises(ValueError):
            enumerate_ccs(m)

    def test_treasure_grid_vs_policy_enumeration(self):
        # Oracle: enumerate all open-loop action sequences of length H on the
        # deterministic grid, collect their discounted value vectors, filter
        # for convex dominance.
        grid = TreasureGrid(
            width=3, height=3, treasures=((0, 2, 1.0), (2, 2, 10.0)), horizon=5
        )
        gamma = 0.95
        returns = []
        for plan in product(range(4), repeat=grid.horizon):
            session = TreasureGridSession(grid)
            session.reset(np.random.default_rng(0))
            total = np.zeros(2)
            for t, action in enumerate(plan):
                _, reward, done = session.step(action, np.random.default_rng(0))
                total += gamma**t * reward
                if done:
                    break
            if all(np.max(np.abs(total - r)) > 1e-9 for r in returns):
                returns.append(total)
        vectors = [ValueVector(tuple(r)) for r in returns]
        reference = sorted(
            v.values
            for k, v in enumerate(vectors)
            if is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
        )
        got = sorted(v.values for v in enumerate_ccs(grid, resolution=500, discount=gamma))
        assert len(got) == len(reference)
        for a, b in zip(got, reference):
            assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-9

    def test_finite_horizon_matches_unrolled_bandit(self):
        m = two_arm_bandit(gamma=0.5)
        value = finite_horizon_values(m, wv(1.0, 0.0), horizon=3)
        # Always pull arm 0: 1 + 0.5 + 0.25 on channel 0.
        assert value.values == pytest.approx((1.75, 0.0), abs=1e-12)


class TestTreasureGrid:
    def test_step_onto_treasure(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 1, 5.0),), horizon=10)
        session = TreasureGridSession(grid)
        session.reset(np.random.default_rng(0))
        pos, reward, done = session.step(1, np.random.default_rng(0))
        assert pos == (0, 1)
        assert tuple(reward) == (5.0, -1.0)
        assert done

    def test_horizon_termination(self):
        grid = TreasureGrid(width=2, height=1, treasures=((0, 1, 5.0),), horizon=2)
        session = TreasureGridSession(grid)
        session.reset(np.random.default_rng(0))
        _, _, done = session.step(0, np.random.default_rng(0))  # bump into wall
        assert not done
        _, _, done = session.step(0, np.random.default_rng(0))
        assert done

    def test_off_grid_moves_stay(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        assert grid.move(0, 0, 0) == (0, 0)  # up against edge
        assert grid.move(0, 0, 3) == (0, 0)  # left against edge
        assert grid.move(0, 0, 1) == (0, 1)

    def test_invalid_action_errors(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        session = TreasureGridSession(grid)
        session.reset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            session.step(7, np.random.default_rng(0))

    def test_tabular_conversion_consistent_with_session(self):
        grid = TreasureGrid(width=3, height=2, treasures=((1, 2, 4.0),), horizon=8)
        m = treasure_grid_to_tabular(grid, discount=0.9)
        session = TreasureGridSession(grid)
        state = session.reset(np.random.default_rng(0))
        s = grid.cell_index(*state)
        rng = np.random.default_rng(1)
        for action in (1, 1, 2):
            (row, col), reward, done = session.step(action, rng)
            nxt, t_reward, t_done = m.step(s, action, rng)
            assert nxt == grid.cell_index(row, col)
            assert tuple(t_reward) == tuple(reward)
            assert t_done == done
            s = nxt


class TestToyLocomotion:
    def test_null_action_from_rest(self):
        env = ToyLocomotion(start_noise=0.0, survive_bonus=1.5)
        env.reset(np.random.default_rng(0))
        _, reward, done = env.step(np.zeros(2), np.random.default_rng(0))
        assert tuple(reward) == (0.0, 0.0, 1.5, 0.0)
        assert not done

    def test_reward_signs(self):
        env = ToyLocomotion(start_noise=0.0)
        rng = np.random.default_rng(1)
        env.reset(rng)
        for _ in range(50):
            _, reward, done = env.step(rng.uniform(-2, 2, 2), rng)
            assert reward[0] <= 0.0  # control cost
            assert reward[1] <= 0.0  # contact cost
            assert reward[2] in (0.0, env.survive_bonus)
            if done:
                break

    def test_action_clamped(self):
        env = ToyLocomotion(start_noise=0.0)
        env.reset(np.random.default_rng(0))
        _, reward, _ = env.step(np.array([10.0, 0.0]), np.random.default_rng(0))
        assert reward[0] == pytest.approx(-1.0)  # |clip(10)|^2 = 1

    def test_sustained_contact_terminates(self):
        env = ToyLocomotion(start_noise=0.0, half_width=0.05, contact_limit=3, horizon=500)
        env.reset(np.random.default_rng(0))
        done = False
        steps = 0
        while not done and steps < 500:
            _, reward, done = env.step(np.array([1.0, 0.0]), np.random.default_rng(0))
            steps += 1
        assert done and steps < 500
        assert reward[2] == 0.0  # no survive bonus on the dying step

    def test_horizon_targets_full_bonus(self):
        env = ToyLocomotion(start_noise=0.0, horizon=4)
        env.reset(np.random.default_rng(0))
        bonuses = []
        for _ in range(4):
            _, reward, done = env.step(np.zeros(2), np.random.default_rng(0))
            bonuses.append(reward[2])
        assert done
        assert bonuses == [1.0, 1.0, 1.0, 1.0]

    def test_episode_within_horizon(self):
        env = ToyLocomotion(horizon=30)
        rng = np.random.default_rng(2)
        env.reset(rng)
        for step in range(30):
            _, reward, done = env.step(rng.uniform(-1, 1, 2), rng)
            assert len(reward) == 4
            if done:
                break
        assert done


class TestAdapters:
    def test_boxed_tabular_one_hot_and_argmax(self):
        m = two_arm_bandit(gamma=0.0)
        env = boxed_tabular(m)
        rng = np.random.default_rng(0)
        obs = env.reset(rng)
        assert obs.shape == (1,)
        nxt, reward, _ = env.step(np.array([0.2, 0.9]), rng)  # argmax -> action 1
        assert tuple(reward) == (0.0, 1.0)

    def test_boxed_treasure_observation(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=5)
        env = boxed_treasure(grid)
        obs = env.reset(np.random.default_rng(0))
        assert obs.shape == (4,)
        assert obs[0] == 1.0 and obs.sum() == 1.0

    def test_single_objective_view(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=9)
        env = SingleObjectiveView(boxed_treasure(grid), 1)
        rng = np.random.default_rng(0)
        env.reset(rng)
        _, reward, _ = env.step(np.array([0.0, 1.0, 0.0, 0.0]), rng)
        assert reward.shape == (1,)
        assert reward[0] == -1.0
        with pytest.raises(ValueError):
            SingleObjectiveView(boxed_treasure(grid), 5)

    def test_reward_length_matches_declared(self):
        rng = np.random.default_rng(1)
        m = random_tabular_momdp(rng, 4, 2, 3, discount=0.9)
        env = boxed_tabular(m)
        env.reset(rng)
        for _ in range(10):
            _, reward, _ = env.step(rng.standard_normal(2), rng)
            assert reward.shape == (env.objective_count,)
