import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlkit.ccs import AolsResult, PartialCcs, aols
from morlkit.core import Iorm, ValueVector, WeightVector
from morlkit.envs import (
    SingleObjectiveView,
    ToyLocomotion,
    TreasureGrid,
    boxed_treasure,
)
from morlkit.nets import (
    GaussianPolicyParams,
    adam_init,
    gaussian_log_prob_with_cache,
    mlp_forward,
    mlp_init,
    mlp_param_list,
    policy_param_list,
    policy_to_arrays,
    mlp_to_arrays,
)
from morlkit.training import (
    TrainerConfig,
    clipped_surrogate,
    collect_rollout,
    critic_update,
    gae,
    iorm_row_select,
    normalize_advantages,
    ppo_actor_update,
    rewards_to_go,
    td_residuals,
    train,
    _init_collector,
)
from reference_trainer import train_single_objective


def vv(*xs):
    return ValueVector(tuple(float(x) for x in xs))


def wv(*xs):
    return WeightVector(tuple(float(x) for x in xs))


def explicit_gae_double_sum(deltas, dones, gamma, lam):
    """O(T^2) oracle: A_t = sum_l (gamma*lam)^l delta_{t+l}, cut at dones."""
    n = len(deltas)
    out = np.zeros(n)
    for t in range(n):
        acc = 0.0
        factor = 1.0
        for l in range(t, n):
            acc += factor * deltas[l]
            if dones[l]:
                break
            factor *= gamma * lam
        out[t] = acc
    return out


def fake_aols_result(weights):
    ws = tuple(weights)
    return AolsResult(
        ccs=PartialCcs((), ()),
        explored_weights=ws,
        delta_max=0.0,
        history=(),
        hit_iteration_cap=False,
    )


class TestTdResiduals:
    def test_zero_case(self):
        assert td_residuals([0.0], [0.0, 0.0], [False], 0.9).tolist() == [0.0]

    def test_unit_reward(self):
        assert td_residuals([1.0], [0.0, 0.0], [False], 0.42).tolist() == [1.0]

    def test_hand_arithmetic(self):
        # delta_1 = 1 + 0.99*0.4 - 0.5, delta_2 = 1 + 0.99*0.3 - 0.4
        deltas = td_residuals([1.0, 1.0], [0.5, 0.4, 0.3], [False, False], 0.99)
        assert deltas == pytest.approx([0.896, 0.897], abs=1e-12)

    def test_terminal_bootstraps_zero(self):
        deltas = td_residuals([1.0], [0.5, 9.0], [True], 0.99)
        assert deltas == pytest.approx([0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            td_residuals([1.0, 2.0], [0.0, 0.0], [False, False], 0.9)


class TestGae:
    def test_lambda_zero_returns_deltas(self):
        deltas = np.array([0.3, -0.7, 1.1])
        out = gae(deltas, [False, False, False], 0.99, 0.0)
        assert np.array_equal(out, deltas)

    def test_single_delta(self):
        assert gae([2.5], [False], 0.9, 0.95).tolist() == [2.5]

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        deltas = rng.standard_normal(50)
        dones = rng.random(50) < 0.15
        got = gae(deltas, dones, 0.99, 0.95)
        want = explicit_gae_double_sum(deltas, dones, 0.99, 0.95)
        assert np.max(np.abs(got - want)) < 1e-12

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=100, deadline=None)
    def test_double_sum_identity_random(self, n, seed):
        rng = np.random.default_rng(seed)
        deltas = rng.standard_normal(n)
        dones = rng.random(n) < 0.2
        gamma = float(rng.uniform(0.5, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        got = gae(deltas, dones, gamma, lam)
        want = explicit_gae_double_sum(deltas, dones, gamma, lam)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_undiscounted_sum_identity(self):
        # lambda = 1, gamma = 1, zero values: advantages equal reward tails.
        rng = np.random.default_rng(4)
        rewards = rng.standard_normal(20)
        dones = np.zeros(20, dtype=bool)
        dones[9] = True
        values = np.zeros(21)
        deltas = td_residuals(rewards, values, dones, 1.0)
        adv = gae(deltas, dones, 1.0, 1.0)
        tails = rewards_to_go(rewards, dones, 1.0)
        assert np.max(np.abs(adv - tails)) < 1e-12


class TestRewardsToGo:
    def test_gamma_zero(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(rewards_to_go(r, [False] * 3, 0.0), r)

    def test_hand_sum(self):
        out = rewards_to_go([1.0, 1.0, 1.0], [False, False, False], 0.5)
        assert out == pytest.approx([1.75, 1.5, 1.0], abs=1e-15)

    def test_episode_cut(self):
        out = rewards_to_go([5.0, 100.0], [True, True], 0.9)
        assert out == pytest.approx([5.0, 100.0])


class TestClippedSurrogate:
    def test_identity_ratio_equals_mean_advantage(self):
        rng = np.random.default_rng(0)
        logp = rng.standard_normal(64)
        adv = rng.standard_normal(64)
        value, grad, mask = clipped_surrogate(logp, logp.copy(), adv, 0.2)
        assert value == float(adv.mean())
        assert not mask.any()
        assert np.allclose(grad, adv / 64)

    def test_clip_saturation_zero_gradient(self):
        # Positive advantage and ratio above 1 + eps: sample contributes no
        # gradient; negative advantage below 1 - eps likewise.
        logp_old = np.array([0.0, 0.0])
        logp_new = np.array([math.log(1.5), math.log(0.5)])
        adv = np.array([1.0, -1.0])
        value, grad, mask = clipped_surrogate(logp_new, logp_old, adv, 0.2)
        assert mask.all()
        assert np.array_equal(grad, np.zeros(2))

    def test_hand_table(self):
        # Oracle: per-sample min(r * A, clip(r) * A) filled by hand.
        eps = 0.2
        rows = [
            # (ratio, adv, expected objective)
            (1.0, 2.0, 2.0),
            (1.5, 2.0, 1.2 * 2.0),
            (0.5, 2.0, 0.5 * 2.0),
            (1.5, -2.0, 1.5 * -2.0),
            (0.5, -2.0, 0.8 * -2.0),
        ]
        logp_old = np.zeros(len(rows))
        logp_new = np.array([math.log(r) for r, _, _ in rows])
        adv = np.array([a for _, a, _ in rows])
        value, _, _ = clipped_surrogate(logp_new, logp_old, adv, eps)
        expected = np.mean([e for _, _, e in rows])
        assert value == pytest.approx(expected, abs=1e-12)


class TestPpoActorUpdate:
    def make_problem(self, seed=0, n=48, state_dim=2, action_dim=1):
        rng = np.random.default_rng(seed)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([state_dim, 8, action_dim], rng, output_gain=0.01),
            log_std=np.zeros(action_dim),
        )
        obs = rng.standard_normal((n, state_dim))
        actions = rng.standard_normal((n, action_dim))
        logp, _ = gaussian_log_prob_with_cache(actor, obs, actions)
        adv = rng.standard_normal(n)
        return actor, obs, actions, logp, adv

    def test_gradient_matches_vanilla_policy_gradient(self):
        # At the behavior policy the clipped objective's gradient equals the
        # plain policy-gradient estimator; check by central differences.
        actor, obs, actions, logp, adv = self.make_problem()
        adv = normalize_advantages(adv)

        def surrogate_value(params):
            from morlkit.nets import policy_from_param_list

            pol = policy_from_param_list(actor, params)
            new_logp, _ = gaussian_log_prob_with_cache(pol, obs, actions)
            value, _, _ = clipped_surrogate(new_logp, logp, adv, 0.2)
            return value

        from morlkit.nets import gaussian_log_prob_backward

        _, cache = gaussian_log_prob_with_cache(actor, obs, actions)
        _, dlogp, _ = clipped_surrogate(logp, logp, adv, 0.2)
        analytic = gaussian_log_prob_backward(actor, cache, dlogp)
        params = policy_param_list(actor)
        h = 1e-5
        worst = 0.0
        for k, p in enumerate(params):
            for idx in range(min(p.size, 6)):
                bump = np.zeros(p.shape)
                bump.flat[idx] = h
                plus = [q.copy() for q in params]
                minus = [q.copy() for q in params]
                plus[k] = p + bump
                minus[k] = p - bump
                numeric = (surrogate_value(plus) - surrogate_value(minus)) / (2 * h)
                scale = max(1e-6, abs(numeric))
                worst = max(worst, abs(numeric - analytic[k].flat[idx]) / scale)
        assert worst < 1e-3

    def test_update_runs_and_reports_diagnostics(self):
        actor, obs, actions, logp, adv = self.make_problem()
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=3,
            minibatch_size=16, steps_per_update=1, env_copies=1,
        )
        opt = adam_init(policy_param_list(actor), cfg.learning_rate)
        new_actor, _, diag = ppo_actor_update(
            actor, opt, obs, actions, logp, adv, cfg, np.random.default_rng(0)
        )
        assert not diag.aborted
        assert 0.0 <= diag.clip_fraction <= 1.0
        changed = any(
            not np.array_equal(a, b)
            for a, b in zip(policy_param_list(actor), policy_param_list(new_actor))
        )
        assert changed

    def test_non_finite_advantage_aborts_and_restores(self):
        actor, obs, actions, logp, adv = self.make_problem()
        adv = adv.copy()
        adv[0] = float("inf")
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=1,
            minibatch_size=16, steps_per_update=1, env_copies=1,
        )
        opt = adam_init(policy_param_list(actor), cfg.learning_rate)
        new_actor, new_opt, diag = ppo_actor_update(
            actor, opt, obs, actions, logp, adv, cfg, np.random.default_rng(0)
        )
        assert diag.aborted
        assert new_actor is actor and new_opt is opt


class TestCriticUpdate:
    def test_full_batch_loss_non_increasing(self):
        rng = np.random.default_rng(7)
        net = mlp_init([3, 16, 1], rng)
        obs = rng.standard_normal((64, 3))
        targets = rng.standard_normal(64)
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=1,
            minibatch_size=64, steps_per_update=1, env_copies=1,
        )
        opt = adam_init(mlp_param_list(net), cfg.learning_rate)
        losses = []
        for _ in range(12):
            pred, _ = mlp_forward(net, obs)
            losses.append(float(((pred[:, 0] - targets) ** 2).mean()))
            net, opt = critic_update(net, opt, obs, targets, cfg, np.random.default_rng(0))
        pred, _ = mlp_forward(net, obs)
        losses.append(float(((pred[:, 0] - targets) ** 2).mean()))
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12

    def test_constant_target_reaches_analytic_minimizer(self):
        rng = np.random.default_rng(3)
        net = mlp_init([1, 8, 1], rng)
        obs = np.ones((32, 1))
        targets = np.full(32, 0.7)
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=10,
            minibatch_size=32, steps_per_update=1, env_copies=1,
            learning_rate=1e-2,
        )
        opt = adam_init(mlp_param_list(net), cfg.learning_rate)
        for _ in range(60):
            net, opt = critic_update(net, opt, obs, targets, cfg, np.random.default_rng(1))
        pred, _ = mlp_forward(net, np.ones(1))
        assert abs(float(pred[0]) - 0.7) < 0.01

    def test_zero_epochs_equivalent_guard(self):
        rng = np.random.default_rng(3)
        net = mlp_init([2, 4, 1], rng)
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=1,
            minibatch_size=8, steps_per_update=1, env_copies=1,
        )
        opt = adam_init(mlp_param_list(net), cfg.learning_rate)
        with pytest.raises(ValueError):
            critic_update(net, opt, np.zeros((4, 2)), np.array([1.0, 2.0, np.nan, 0.0]),
                          cfg, np.random.default_rng(0))

    def test_perfect_fit_stationary(self):
        # A net that already matches its targets sees near-zero gradients.
        rng = np.random.default_rng(9)
        net = mlp_init([2, 4, 1], rng)
        obs = rng.standard_normal((16, 2))
        pred, _ = mlp_forward(net, obs)
        targets = pred[:, 0].copy()
        from morlkit.nets import mlp_backward

        pred, cache = mlp_forward(net, obs)
        err = pred[:, 0] - targets
        grads, _ = mlp_backward(net, cache, (2 * err / 16)[:, None])
        total = sum(float(np.abs(g).sum()) for g in grads)
        assert total < 1e-8


class TestIormRowSelect:
    def test_extrema_only_fallback(self):
        result = fake_aols_result([wv(1, 0, 0), wv(0, 1, 0), wv(0, 0, 1)])
        row = iorm_row_select(result, 1, vv(1.0, 2.0, 3.0))
        assert row.weights == (0.0, 1.0, 0.0)

    def test_tie_prefers_interior_weight(self):
        # Oracle: exhaustive scan; dots tie at 1.0, entropy picks (0.6, 0.4).
        result = fake_aols_result([wv(1, 0), wv(0, 1), wv(0.6, 0.4)])
        row = iorm_row_select(result, 0, vv(1.0, 1.0))
        assert row.weights == (0.6, 0.4)

    def test_extremum_wins_on_value(self):
        # Oracle: e1 dot (10, 0) = 10 beats (0.5, 0.5) dot = 5.
        result = fake_aols_result([wv(1, 0), wv(0.5, 0.5), wv(0, 1)])
        row = iorm_row_select(result, 0, vv(10.0, 0.0))
        assert row.weights == (1.0, 0.0)

    def test_requires_weakly_largest_component(self):
        # (0.2, 0.8) is explored but its first component is not its largest,
        # so for objective 0 only e1 qualifies.
        result = fake_aols_result([wv(1, 0), wv(0.2, 0.8)])
        row = iorm_row_select(result, 0, vv(0.0, 100.0))
        assert row.weights == (1.0, 0.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            iorm_row_select(fake_aols_result([]), 0, vv(1.0))


class TestCollectRollout:
    def test_episode_bookkeeping(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=4)
        factory = lambda: boxed_treasure(grid)
        envs = [factory(), factory()]
        rngs = [np.random.default_rng(k) for k in range(2)]
        rng = np.random.default_rng(0)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([3, 8, 4], rng, output_gain=0.01), log_std=np.zeros(4)
        )
        state = _init_collector(envs, rngs, 2)
        batch, state = collect_rollout(envs, state, actor, 16, 0.95, rng, rngs)
        assert batch.traj.step_count == 32
        assert batch.traj.rewards.shape == (32, 2)
        assert batch.stream_slices == [slice(0, 16), slice(16, 32)]
        assert batch.traj.episode_starts[0] == 0
        assert 16 in batch.traj.episode_starts  # second stream boundary
        # horizon 4 means every episode terminates within the window
        assert len(batch.completed_returns) >= 6

    def test_completed_returns_match_manual_replay(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=4)
        envs = [boxed_treasure(grid)]
        rngs = [np.random.default_rng(5)]
        rng = np.random.default_rng(1)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([3, 8, 4], rng, output_gain=0.01), log_std=np.zeros(4)
        )
        state = _init_collector(envs, rngs, 2)
        batch, _ = collect_rollout(envs, state, actor, 12, 0.5, rng, rngs)
        # Replay from the stored per-step rewards.
        rewards = batch.traj.rewards
        dones = batch.traj.dones
        expected = []
        acc = np.zeros(2)
        pos = 0
        for t in range(12):
            acc += 0.5**pos * rewards[t]
            pos += 1
            if dones[t]:
                expected.append(acc.copy())
                acc = np.zeros(2)
                pos = 0
        assert len(expected) == len(batch.completed_returns)
        for a, b in zip(expected, batch.completed_returns):
            assert np.allclose(a, b, atol=1e-12)


def tiny_cfg(**kwargs):
    base = dict(
        objective_count=2,
        updates_per_objective=2,
        steps_per_update=64,
        env_copies=2,
        epochs_per_update=2,
        minibatch_size=32,
        discount=0.95,
        seed=0,
    )
    base.update(kwargs)
    return TrainerConfig(**base)


class TestTrain:
    def test_treasure_run_invariants(self):
        grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
        art = train(lambda: boxed_treasure(grid), tiny_cfg())
        assert len(art.metrics) == 4
        for row in art.iorm.rows:
            assert abs(sum(row.weights) - 1.0) <= 1e-9
            assert min(row.weights) >= 0.0
        assert len(art.ccs.vectors) >= 1
        for m in art.metrics:
            assert m.delta_r >= 0.0
        assert art.critics.size == 2

    @pytest.mark.parametrize(
        "objective_count, factory",
        [
            (2, lambda: boxed_treasure(TreasureGrid(3, 3, ((0, 2, 3.0), (2, 2, 12.0)), horizon=10))),
            (4, lambda: ToyLocomotion(horizon=40)),
        ],
        ids=["treasure", "locomotion"],
    )
    def test_trained_iorm_is_identity(self, objective_count, factory):
        # Each objective trains on its own channel, so the rows stay the identity.
        art = train(factory, tiny_cfg(objective_count=objective_count, updates_per_objective=1))
        assert np.array_equal(art.iorm.matrix, np.eye(objective_count))

    def test_locomotion_smoke(self):
        cfg = tiny_cfg(objective_count=4, updates_per_objective=1, steps_per_update=64)
        art = train(lambda: ToyLocomotion(horizon=40), cfg)
        assert len(art.metrics) == 4
        for row in art.iorm.rows:
            assert abs(sum(row.weights) - 1.0) <= 1e-9
        assert all(len(m.mean_returns) == 4 for m in art.metrics)

    def test_objective_count_checked(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=4)
        with pytest.raises(ValueError):
            train(lambda: boxed_treasure(grid), tiny_cfg(objective_count=3))

    def test_determinism_same_seed(self):
        grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
        a = train(lambda: boxed_treasure(grid), tiny_cfg(seed=5))
        b = train(lambda: boxed_treasure(grid), tiny_cfg(seed=5))
        assert a.metrics == b.metrics
        pa, pb = policy_to_arrays(a.actor), policy_to_arrays(b.actor)
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)

    def test_i1_reduction_bit_identical(self):
        grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
        factory = lambda: SingleObjectiveView(boxed_treasure(grid), 0)
        cfg = tiny_cfg(objective_count=1, updates_per_objective=4, seed=9)
        a = train(factory, cfg)
        b = train_single_objective(factory, cfg)
        assert a.metrics == b.metrics
        assert a.iorm.matrix.tolist() == [[1.0]] and b.iorm.matrix.tolist() == [[1.0]]
        pa, pb = policy_to_arrays(a.actor), policy_to_arrays(b.actor)
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
        ca = mlp_to_arrays(a.critics.nets[0], "c")
        cb = mlp_to_arrays(b.critics.nets[0], "c")
        assert all(np.array_equal(ca[k], cb[k]) for k in ca)
        assert [v.values for v in a.ccs.vectors] == [v.values for v in b.ccs.vectors]

    def test_single_objective_requires_one_channel(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=4)
        with pytest.raises(ValueError):
            train_single_objective(lambda: boxed_treasure(grid), tiny_cfg(objective_count=1))

    def test_trained_beats_random_on_forward_reward(self):
        # Regression bound: a briefly trained forward-only policy must out-run
        # a freshly initialized one on the forward channel over 20 episodes.
        from morlkit.nets import GaussianPolicyParams, mlp_init
        from morlkit.training import evaluate_policy

        factory = lambda: SingleObjectiveView(ToyLocomotion(horizon=100), 3)
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=8, steps_per_update=512,
            env_copies=1, epochs_per_update=10, minibatch_size=64,
            discount=0.99, seed=0,
        )
        trained = train(factory, cfg)
        rng = np.random.default_rng(1)
        random_actor = GaussianPolicyParams(
            mean_net=mlp_init([4, 64, 64, 2], rng, output_gain=0.01),
            log_std=np.zeros(2),
        )
        eval_env = ToyLocomotion(horizon=100)
        rng_a = np.random.default_rng(np.random.SeedSequence(123))
        trained_mean, _, _ = evaluate_policy(eval_env, trained.actor, 20, 0.99, rng_a)
        rng_b = np.random.default_rng(np.random.SeedSequence(123))
        random_mean, _, _ = evaluate_policy(eval_env, random_actor, 20, 0.99, rng_b)
        assert trained_mean[3] > random_mean[3]

    def test_early_stop_on_threshold(self):
        grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
        cfg = tiny_cfg(updates_per_objective=6, termination_epsilon=1e9)
        art = train(lambda: boxed_treasure(grid), cfg)
        # Threshold is huge, so the second update (first with a nonempty
        # running set) triggers the stop.
        assert art.early_stopped
        assert len(art.metrics) == 2
