import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morlkit import training
from morlkit.ccs import AolsResult, PartialCcs
from morlkit.core import ValueVector, WeightVector
from morlkit.envs import (
    DiscreteToBox,
    SingleObjectiveView,
    ToyLocomotion,
    TreasureGrid,
    boxed_treasure,
    treasure_grid_to_tabular,
    value_iteration,
)
from morlkit.nets import (
    GaussianPolicyParams,
    MlpParams,
    adam_init,
    gaussian_log_prob_with_cache,
    mlp_forward,
    mlp_init,
    mlp_param_list,
    mlp_stack,
    mlp_unstack,
    mlp_vector,
    param_vector,
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
    run_sequence,
    start,
    td_residuals,
    train,
    _init_collector,
    _rows,
)
from reference_critic import list_adam_init, reference_critic_update
from reference_trainer import train_single_objective


def vv(*xs):
    return ValueVector(tuple(float(x) for x in xs))


def wv(*xs):
    return WeightVector(tuple(float(x) for x in xs))


def one_lane(net, learning_rate):
    """A single critic as a bank of one lane, with fresh Adam state."""
    bank = mlp_stack([net])
    return bank, adam_init(mlp_vector(bank), learning_rate)


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


class CountingEnv:
    """Never-ending one-dimensional env, one copy per scale: step t of copy
    c pays (scales[c], t), ignoring the action."""

    observation_dim = 1
    action_dim = 1
    objective_count = 2

    def __init__(self, scales):
        self.scales = np.asarray(scales, dtype=float)

    def reset(self, rngs, copies=None):
        self.t = 0
        return np.zeros((len(rngs), 1))

    def step(self, actions, rngs):
        rewards = np.column_stack([self.scales, np.full(len(self.scales), float(self.t))])
        self.t += 1
        return np.zeros((len(rngs), 1)), rewards, np.zeros(len(rngs), dtype=bool)


class ScriptedEnv:
    """Replays fixed per-episode reward rows, ignoring the actions: the k-th
    episode started pays episodes[k % len(episodes)] in order and ends on
    its last row. A copy whose episode has ended pays NaN, which a caller
    must drop."""

    observation_dim = 1
    action_dim = 1

    def __init__(self, *episodes):
        self.episodes = [np.asarray(rows, dtype=float) for rows in episodes]
        self.objective_count = self.episodes[0].shape[1]
        self.started = 0

    def reset(self, rngs, copies=None):
        if copies is None:
            copies = range(len(rngs))
            self.rows = [None] * len(rngs)
            self.t = np.zeros(len(rngs), dtype=int)
        for c in copies:
            self.rows[c] = self.episodes[self.started % len(self.episodes)]
            self.started += 1
            self.t[c] = 0
        return np.zeros((len(copies), 1))

    def step(self, actions, rngs):
        rewards = np.full((len(self.rows), self.objective_count), np.nan)
        for c, rows in enumerate(self.rows):
            if self.t[c] < len(rows):
                rewards[c] = rows[self.t[c]]
        self.t += 1
        dones = np.array([t == len(rows) for t, rows in zip(self.t, self.rows)])
        return np.zeros((len(self.rows), 1)), rewards, dones


def fake_aols_result(weights):
    ws = tuple(weights)
    return AolsResult(
        ccs=PartialCcs(()),
        explored_weights=ws,
        delta_max=0.0,
        history=(),
        hit_iteration_cap=False,
    )


class TestTdResiduals:
    def test_zero_case(self):
        assert td_residuals(np.array([0.0]), np.array([0.0, 0.0]), np.array([False]), 0.9).tolist() == [0.0]

    def test_unit_reward(self):
        assert td_residuals(np.array([1.0]), np.array([0.0, 0.0]), np.array([False]), 0.42).tolist() == [1.0]

    def test_hand_arithmetic(self):
        # delta_1 = 1 + 0.99*0.4 - 0.5, delta_2 = 1 + 0.99*0.3 - 0.4
        deltas = td_residuals(
            np.array([1.0, 1.0]), np.array([0.5, 0.4, 0.3]), np.array([False, False]), 0.99
        )
        assert deltas == pytest.approx([0.896, 0.897], abs=1e-12)

    def test_terminal_bootstraps_zero(self):
        deltas = td_residuals(np.array([1.0]), np.array([0.5, 9.0]), np.array([True]), 0.99)
        assert deltas == pytest.approx([0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            td_residuals(np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([False, False]), 0.9)

    def test_time_major_columns_are_independent_streams(self):
        rng = np.random.default_rng(6)
        rewards = rng.standard_normal((12, 3))
        values = rng.standard_normal((13, 3))
        dones = rng.random((12, 3)) < 0.3
        got = td_residuals(rewards, values, dones, 0.9)
        assert got.shape == (12, 3)
        for c in range(3):
            want = td_residuals(rewards[:, c], values[:, c], dones[:, c], 0.9)
            assert np.array_equal(got[:, c], want)


class TestGae:
    def test_lambda_zero_returns_deltas(self):
        deltas = np.array([0.3, -0.7, 1.1])
        out = gae(deltas, np.array([False, False, False]), 0.99, 0.0)
        assert np.array_equal(out, deltas)

    def test_single_delta(self):
        assert gae(np.array([2.5]), np.array([False]), 0.9, 0.95).tolist() == [2.5]

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
        tails = explicit_gae_double_sum(rewards, dones, 1.0, 1.0)
        assert np.max(np.abs(adv - tails)) < 1e-12

    def test_trailing_axes_with_per_channel_lambda(self):
        # (steps, copies, channels) with dones per (step, copy) and one lam
        # per channel: bit-equal to one 1-D call per copy and channel.
        rng = np.random.default_rng(7)
        deltas = rng.standard_normal((30, 4, 3))
        dones = rng.random((30, 4)) < 0.2
        lam = np.array([1.0, 0.5, 0.95])
        before = deltas.copy()
        got = gae(deltas, dones, 0.97, lam)
        assert np.array_equal(deltas, before)  # the input is left as it was
        assert got.shape == deltas.shape
        for c in range(4):
            for k in range(3):
                want = gae(deltas[:, c, k], dones[:, c], 0.97, float(lam[k]))
                assert np.array_equal(got[:, c, k], want)


class TestRewardsToGo:
    """Reward-to-go targets are gae at lambda=1 on the raw rewards."""

    def test_gamma_zero(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(gae(r, np.zeros(3, dtype=bool), 0.0, 1.0), r)

    def test_hand_sum(self):
        out = gae(np.array([1.0, 1.0, 1.0]), np.array([False, False, False]), 0.5, 1.0)
        assert out == pytest.approx([1.75, 1.5, 1.0], abs=1e-15)

    def test_episode_cut(self):
        out = gae(np.array([5.0, 100.0]), np.array([True, True]), 0.9, 1.0)
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
        opt = adam_init(param_vector(policy_param_list(actor)), cfg.learning_rate)
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
        opt = adam_init(param_vector(policy_param_list(actor)), cfg.learning_rate)
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
        bank, opt = one_lane(net, cfg.learning_rate)
        losses = []
        for _ in range(12):
            pred, _ = mlp_forward(bank, obs)
            losses.append(float(((pred[0, :, 0] - targets) ** 2).mean()))
            bank, opt = critic_update(bank, opt, obs, targets[None], cfg, np.random.default_rng(0))
        pred, _ = mlp_forward(bank, obs)
        losses.append(float(((pred[0, :, 0] - targets) ** 2).mean()))
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
        bank, opt = one_lane(net, cfg.learning_rate)
        for _ in range(60):
            bank, opt = critic_update(bank, opt, obs, targets[None], cfg, np.random.default_rng(1))
        (net,) = mlp_unstack(bank)
        pred, _ = mlp_forward(net, np.ones(1))
        assert abs(float(pred[0]) - 0.7) < 0.01

    def test_zero_epochs_equivalent_guard(self):
        rng = np.random.default_rng(3)
        net = mlp_init([2, 4, 1], rng)
        cfg = TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=1,
            minibatch_size=8, steps_per_update=1, env_copies=1,
        )
        bank, opt = one_lane(net, cfg.learning_rate)
        with pytest.raises(ValueError):
            critic_update(bank, opt, np.zeros((4, 2)), np.array([[1.0, 2.0, np.nan, 0.0]]),
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
        grads = mlp_backward(net, cache, (2 * err / 16)[:, None])
        total = sum(float(np.abs(g).sum()) for g in grads)
        assert total < 1e-8


class TestAbortPaths:
    """A non-finite gradient aborts an update before any Adam step, and a
    normal update never writes into the arrays it was given."""

    CFG = TrainerConfig(
        objective_count=1, updates_per_objective=1, epochs_per_update=2,
        minibatch_size=16, steps_per_update=1, env_copies=1,
    )

    @staticmethod
    def critic_problem():
        rng = np.random.default_rng(2)
        bank = mlp_stack([mlp_init([3, 8, 1], rng)])
        return bank, rng.standard_normal((32, 3)), rng.standard_normal((1, 32))

    @staticmethod
    def no_adam_step(monkeypatch):
        def fail(*args):
            pytest.fail("adam_step called on a non-finite gradient")

        monkeypatch.setattr(training, "adam_step", fail)

    def test_non_finite_critic_gradient_aborts(self, monkeypatch, caplog):
        net, obs, targets = self.critic_problem()
        opt = adam_init(mlp_vector(net), self.CFG.learning_rate)
        backward = training.mlp_backward

        def nan_backward(*args):
            grads = backward(*args)
            return grads[:-1] + [np.full_like(grads[-1], np.nan)]

        monkeypatch.setattr(training, "mlp_backward", nan_backward)
        self.no_adam_step(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="morlkit.training"):
            new_net, new_opt = critic_update(net, opt, obs, targets, self.CFG, np.random.default_rng(0))
        assert new_net is net and new_opt is opt
        assert caplog.messages == ["non-finite critic gradient; aborting critic update"]

    def test_non_finite_actor_gradient_aborts(self, monkeypatch, caplog):
        actor, obs, actions, logp, adv = TestPpoActorUpdate().make_problem()
        opt = adam_init(param_vector(policy_param_list(actor)), self.CFG.learning_rate)
        backward = training.gaussian_log_prob_backward

        def nan_backward(*args):
            grads = backward(*args)
            return grads[:-1] + [np.full_like(grads[-1], np.inf)]

        monkeypatch.setattr(training, "gaussian_log_prob_backward", nan_backward)
        self.no_adam_step(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="morlkit.training"):
            new_actor, new_opt, diag = ppo_actor_update(
                actor, opt, obs, actions, logp, adv, self.CFG, np.random.default_rng(0)
            )
        assert new_actor is actor and new_opt is opt and diag.aborted
        assert caplog.messages == ["non-finite gradient; aborting actor update"]

    def test_non_finite_surrogate_aborts(self, monkeypatch, caplog):
        # Old log-probabilities of -1e308 overflow every ratio to inf, so a
        # sample with a negative advantage makes the surrogate -inf.
        actor, obs, actions, logp, adv = TestPpoActorUpdate().make_problem()
        assert (adv > 0).any() and (adv < 0).any()
        opt = adam_init(param_vector(policy_param_list(actor)), self.CFG.learning_rate)
        self.no_adam_step(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="morlkit.training"), np.errstate(over="ignore"):
            new_actor, new_opt, diag = ppo_actor_update(
                actor, opt, obs, actions, np.full_like(logp, -1e308), adv, self.CFG,
                np.random.default_rng(0),
            )
        assert new_actor is actor and new_opt is opt and diag.aborted
        assert caplog.messages == ["non-finite surrogate; aborting actor update"]

    def test_updates_leave_incoming_arrays_unchanged(self):
        net, obs, targets = self.critic_problem()
        net_opt = adam_init(mlp_vector(net), self.CFG.learning_rate)
        actor, a_obs, actions, logp, adv = TestPpoActorUpdate().make_problem()
        actor_opt = adam_init(param_vector(policy_param_list(actor)), self.CFG.learning_rate)
        incoming = [
            *mlp_param_list(net), net_opt.m, net_opt.v,
            *policy_param_list(actor), actor_opt.m, actor_opt.v,
        ]
        before = [a.copy() for a in incoming]
        new_net, _ = critic_update(net, net_opt, obs, targets, self.CFG, np.random.default_rng(0))
        new_actor, _, diag = ppo_actor_update(
            actor, actor_opt, a_obs, actions, logp, adv, self.CFG, np.random.default_rng(0)
        )
        assert not diag.aborted
        assert all(np.array_equal(a, b) for a, b in zip(incoming, before))
        assert not np.array_equal(new_net.weights[0], net.weights[0])
        assert not np.array_equal(new_actor.log_std, actor.log_std)


class TestCriticBank:
    """critic_update trains I critics as one stacked bank; oracle: the
    per-network update of tests/reference_critic.py, run on each critic in
    turn on one generator, bit for bit."""

    @staticmethod
    def problem(lanes, n=50):
        rng = np.random.default_rng(30 + lanes)
        nets = [mlp_init([3, 8, 8, 1], rng) for _ in range(lanes)]
        obs = rng.standard_normal((n, 3))
        targets = rng.standard_normal((lanes, n)) * np.arange(1, lanes + 1)[:, None]
        return nets, obs, targets

    @staticmethod
    def cfg(epochs=3, minibatch=16):
        # 50 rows in minibatches of 16 leave a short last minibatch of 2.
        return TrainerConfig(
            objective_count=1, updates_per_objective=1, epochs_per_update=epochs,
            minibatch_size=minibatch, steps_per_update=1, env_copies=1, learning_rate=1e-2,
        )

    @staticmethod
    def reference(nets, states, obs, targets, cfg, rng):
        out = [
            reference_critic_update(net, st, obs, t, cfg.epochs_per_update, cfg.minibatch_size, rng)
            for net, st, t in zip(nets, states, targets)
        ]
        return [net for net, _ in out], [st for _, st in out]

    @staticmethod
    def assert_lane_equals(bank, opt, lane, net, m, v, step):
        lone = mlp_unstack(bank)[lane]
        assert all(np.array_equal(a, b) for a, b in zip(mlp_param_list(lone), mlp_param_list(net)))
        assert np.array_equal(opt.m[lane], m) and np.array_equal(opt.v[lane], v)
        assert opt.step[lane] == step

    def trained_once(self, lanes, cfg, seed):
        """A bank and the matching reference critics after one update, with
        the two generators at the same point."""
        nets, obs, targets = self.problem(lanes)
        bank = mlp_stack(nets)
        opt = adam_init(mlp_vector(bank), cfg.learning_rate)
        states = [list_adam_init(mlp_param_list(net), cfg.learning_rate) for net in nets]
        rng_bank, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        bank, opt = critic_update(bank, opt, obs, targets, cfg, rng_bank)
        nets, states = self.reference(nets, states, obs, targets, cfg, rng_ref)
        return bank, opt, nets, states, obs, targets, rng_bank, rng_ref

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_bank_equals_independent_updates(self, lanes):
        cfg = self.cfg()
        bank, opt, nets, states, obs, targets, rng_bank, rng_ref = self.trained_once(lanes, cfg, 5)
        # A second update, from nonzero moments.
        bank, opt = critic_update(bank, opt, obs, targets, cfg, rng_bank)
        nets, states = self.reference(nets, states, obs, targets, cfg, rng_ref)
        for lane, (net, st) in enumerate(zip(nets, states)):
            self.assert_lane_equals(bank, opt, lane, net, param_vector(st.m), param_vector(st.v), st.step)
        assert rng_bank.integers(1 << 62) == rng_ref.integers(1 << 62)

    def test_one_lane_gradient_abort_leaves_the_others(self, monkeypatch, caplog):
        cfg = self.cfg()
        bank, opt, nets, states, obs, targets, rng_bank, rng_ref = self.trained_once(3, cfg, 1)
        before = [a.copy() for a in (mlp_vector(bank), opt.m, opt.v, opt.step)]
        # The bank draws all of a lane's permutations up front, so the
        # faulted lane's draws match a reference update that runs to the end.
        nets, states = self.reference(nets, states, obs, targets, cfg, rng_ref)
        backward = training.mlp_backward
        calls = []

        def nan_in_lane_1(*args):
            grads = backward(*args)
            calls.append(None)
            if len(calls) == 5:
                grads[0] = grads[0].copy()
                grads[0][1, 0, 0] = np.nan
            return grads

        monkeypatch.setattr(training, "mlp_backward", nan_in_lane_1)
        with caplog.at_level(logging.WARNING, logger="morlkit.training"):
            new_bank, new_opt = critic_update(bank, opt, obs, targets, cfg, rng_bank)
        assert caplog.messages == ["non-finite critic gradient; aborting critic update"]
        assert len(calls) == 12  # the other lanes ran every minibatch
        lane_1 = mlp_unstack(bank)[1]
        self.assert_lane_equals(new_bank, new_opt, 1, lane_1, before[1][1], before[2][1], before[3][1])
        for lane in (0, 2):
            st = states[lane]
            self.assert_lane_equals(new_bank, new_opt, lane, nets[lane], param_vector(st.m), param_vector(st.v), st.step)
        after = (mlp_vector(bank), opt.m, opt.v, opt.step)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_one_lane_loss_abort_leaves_the_others(self, caplog):
        # One epoch: the reference draws the faulted lane's one permutation
        # before it aborts, as the bank does.
        cfg = self.cfg(epochs=1)
        bank, opt, nets, states, obs, targets, rng_bank, rng_ref = self.trained_once(3, cfg, 2)
        targets = targets.copy()
        targets[2] = 1e200  # finite targets whose squared error overflows
        with np.errstate(over="ignore"):
            nets, states = self.reference(nets, states, obs, targets, cfg, rng_ref)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="morlkit.training"):
                new_bank, new_opt = critic_update(bank, opt, obs, targets, cfg, rng_bank)
        assert caplog.messages == ["non-finite critic loss; aborting critic update"]
        assert new_opt.step.tolist() == [8, 8, 4]
        for lane in range(3):
            st = states[lane]
            self.assert_lane_equals(new_bank, new_opt, lane, nets[lane], param_vector(st.m), param_vector(st.v), st.step)
        assert rng_bank.integers(1 << 62) == rng_ref.integers(1 << 62)


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


def replay_completed_returns(batches, gamma):
    """Completed returns replayed from stored per-step rewards, phase by
    phase, with per-copy scalar discount powers."""
    copies, objectives = batches[0].rewards.shape[1:]
    acc = np.zeros((copies, objectives))
    pos = np.zeros(copies)
    expected = []
    for batch in batches:
        for t in range(batch.rewards.shape[0]):
            for c in range(copies):
                acc[c] += gamma ** pos[c] * batch.rewards[t, c]
                pos[c] += 1.0
                if batch.dones[t, c]:
                    expected.append(acc[c].copy())
                    acc[c] = 0.0
                    pos[c] = 0.0
    return expected


class TestCollectRollout:
    def test_episode_bookkeeping(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=4)
        env = boxed_treasure(grid)
        rngs = [np.random.default_rng(k) for k in range(2)]
        rng = np.random.default_rng(0)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([3, 8, 4], rng, output_gain=0.01), log_std=np.zeros(4)
        )
        state = _init_collector(env, rngs, 2)
        batch, state = collect_rollout(env, state, actor, 16, 0.95, rng, rngs)
        # Time-major: index [t, c] is copy c's step t.
        assert batch.obs.shape == (16, 2, 3)
        assert batch.actions.shape == (16, 2, 4)
        assert batch.rewards.shape == (16, 2, 2)
        assert batch.dones.shape == batch.log_probs.shape == (16, 2)
        assert batch.bootstrap_obs.shape == (2, 3)
        # horizon 4 means every episode terminates within the window
        assert len(batch.completed_returns) == int(batch.dones.sum()) >= 6

    def test_rows_are_copy_major(self):
        grid = TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=4)
        env = boxed_treasure(grid)
        rngs = [np.random.default_rng(k) for k in range(3)]
        rng = np.random.default_rng(3)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([3, 8, 4], rng, output_gain=0.01), log_std=np.zeros(4)
        )
        batch, _ = collect_rollout(env, _init_collector(env, rngs, 2), actor, 5, 0.9, rng, rngs)
        for a in (batch.obs, batch.actions, batch.rewards, batch.dones, batch.log_probs):
            rows = _rows(a)
            assert rows.shape == (15, *a.shape[2:])
            for c in range(3):
                assert np.array_equal(rows[c * 5 : (c + 1) * 5], a[:, c])
        labels = np.arange(6).reshape(3, 2)  # [t, c] -> 2 * t + c
        assert _rows(labels).tolist() == [0, 2, 4, 1, 3, 5]

    def test_completed_returns_match_manual_replay(self):
        # (env, copies, phases, steps per phase, discount); the locomotion
        # case carries episodes across phases.
        cases = [
            (boxed_treasure(TreasureGrid(width=3, height=1, treasures=((0, 2, 5.0),), horizon=4)), 1, 1, 12, 0.5),
            (ToyLocomotion(horizon=60), 8, 3, 256, 0.99),
        ]
        for env, copies, phases, steps, gamma in cases:
            rngs = [np.random.default_rng(5 + c) for c in range(copies)]
            rng = np.random.default_rng(1)
            actor = GaussianPolicyParams(
                mean_net=mlp_init([env.observation_dim, 8, env.action_dim], rng, output_gain=0.01),
                log_std=np.zeros(env.action_dim),
            )
            state = _init_collector(env, rngs, env.objective_count)
            batches = []
            for _ in range(phases):
                batch, state = collect_rollout(env, state, actor, steps, gamma, rng, rngs)
                batches.append(batch)
            expected = replay_completed_returns(batches, gamma)
            completed = [r for batch in batches for r in batch.completed_returns]
            assert len(expected) == len(completed) >= copies
            for a, b in zip(expected, completed):
                assert np.array_equal(a, b)

    def test_mean_returns_without_completed_episode(self):
        # No episode ends inside the phase, so the mean return falls back to
        # each copy's discounted reward sum over the phase, averaged over copies.
        env = CountingEnv(scales=[1.0, 2.0, 3.0])
        rngs = [np.random.default_rng(k) for k in range(3)]
        rng = np.random.default_rng(2)
        actor = GaussianPolicyParams(
            mean_net=mlp_init([1, 4, 1], rng, output_gain=0.01), log_std=np.zeros(1)
        )
        state = _init_collector(env, rngs, 2)
        batch, _ = collect_rollout(env, state, actor, 10, 0.9, rng, rngs)
        assert not batch.completed_returns
        discounts = 0.9 ** np.arange(10)
        want = (2.0 * discounts.sum(), float(discounts @ np.arange(10.0)))
        assert training._mean_returns(batch, 0.9) == pytest.approx(want, rel=1e-12)


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
        assert len(art.critics.nets) == 2

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

    def test_nan_reward_raises(self):
        # The second env copy pays a NaN reward on its 71st step: step 6 of
        # the second 64-step collection phase.
        class NanAtStep(ToyLocomotion):
            def __init__(self, nan_copy, nan_step):
                super().__init__(horizon=40)
                self.nan_copy = nan_copy
                self.nan_step = nan_step
                self.steps = 0

            def step(self, actions, rngs):
                obs, rewards, dones = super().step(actions, rngs)
                self.steps += 1
                if self.steps == self.nan_step:
                    rewards[self.nan_copy, 1] = np.nan
                return obs, rewards, dones

        with pytest.raises(ValueError, match=r"copy 1 .*reward at step 6\b"):
            train(lambda: NanAtStep(1, 71), tiny_cfg(objective_count=4))

    def test_objective_count_checked(self):
        grid = TreasureGrid(width=2, height=2, treasures=((1, 1, 1.0),), horizon=4)
        with pytest.raises(ValueError, match="emits 2 reward channels, config expects 3"):
            start(boxed_treasure(grid), tiny_cfg(objective_count=3))

    def test_run_sequence_resumes_bit_for_bit(self):
        # Two sequences of 2 updates on one row are one sequence of 4: the
        # state carries everything an update needs from the one before.
        grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
        row = wv(0.25, 0.75)
        halves, whole = tiny_cfg(seed=4, updates_per_objective=2), tiny_cfg(seed=4, updates_per_objective=4)
        env_a, env_b = boxed_treasure(grid), boxed_treasure(grid)
        a, b = start(env_a, halves), start(env_b, whole)
        assert not run_sequence(env_a, a, 1, row, halves)
        assert not run_sequence(env_a, a, 1, row, halves)
        assert not run_sequence(env_b, b, 1, row, whole)
        assert len(a.metrics) == 4 and a.metrics == b.metrics
        assert [m.update_index for m in a.metrics] == [0, 1, 2, 3]
        pa, pb = policy_to_arrays(a.actor), policy_to_arrays(b.actor)
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
        ca, cb = mlp_to_arrays(a.bank, "c"), mlp_to_arrays(b.bank, "c")
        assert all(np.array_equal(ca[k], cb[k]) for k in ca)
        for opt_a, opt_b in ((a.actor_opt, b.actor_opt), (a.bank_opt, b.bank_opt)):
            assert np.array_equal(opt_a.m, opt_b.m) and np.array_equal(opt_a.v, opt_b.v)
        assert [v.values for v in a.running_vectors] == [v.values for v in b.running_vectors]

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


def scripted_actor():
    rng = np.random.default_rng(0)
    return GaussianPolicyParams(mean_net=mlp_init([1, 4, 1], rng), log_std=np.zeros(1))


class TestEvaluatePolicy:
    def evaluate(self, env, episodes, gamma, **kwargs):
        return training.evaluate_policy(
            env, scripted_actor(), episodes, gamma, np.random.default_rng(0), **kwargs
        )

    def test_single_step(self):
        mean, _, _ = self.evaluate(ScriptedEnv([[1.0, -1.0]]), 1, 0.37)
        assert mean.values == (1.0, -1.0)

    def test_two_step_hand_sum(self):
        # Oracle: 1 + 0.5 * 1 = 1.5 on channel 0, zero on channel 1.
        mean, _, _ = self.evaluate(ScriptedEnv([[1.0, 0.0], [1.0, 0.0]]), 1, 0.5)
        assert mean.values == (1.5, 0.0)

    def test_zero_rewards(self):
        mean, _, _ = self.evaluate(ScriptedEnv(np.zeros((4, 2))), 1, 0.9)
        assert mean.values == (0.0, 0.0)

    def test_gamma_zero_is_first_reward(self):
        mean, _, _ = self.evaluate(ScriptedEnv([[2.0, 3.0], [5.0, 7.0]]), 1, 0.0)
        assert mean.values == (2.0, 3.0)

    def test_single_episode_zero_std(self):
        mean, std, _ = self.evaluate(ScriptedEnv([[1.0, 2.0]]), 1, 0.9)
        assert mean.values == (1.0, 2.0)
        assert std.values == (0.0, 0.0)

    def test_two_identical_episodes(self):
        mean, std, _ = self.evaluate(ScriptedEnv([[1.0]], [[1.0]]), 2, 0.5)
        assert mean.values == (1.0,)
        assert std.values == (0.0,)

    def test_population_std(self):
        # Returns (1, 0) and (3, 0): mean (2, 0), population std (1, 0).
        mean, std, _ = self.evaluate(ScriptedEnv([[1.0, 0.0]], [[3.0, 0.0]]), 2, 0.99)
        assert mean.values == (2.0, 0.0)
        assert std.values == (1.0, 0.0)

    def test_episode_must_end_within_max_steps(self):
        with pytest.raises(RuntimeError, match="max_steps"):
            self.evaluate(ScriptedEnv(np.ones((5, 1))), 1, 0.9, max_steps=4)

    def test_nan_reward_rejected(self):
        with pytest.raises(ValueError, match="episode 1 .* at step 1"):
            self.evaluate(ScriptedEnv([[1.0]], [[1.0], [np.nan]]), 2, 0.9)

    def test_finished_episodes_rewards_dropped(self):
        # Episode 0 ends after one step while episode 1 runs on; the NaN
        # that copy 0 pays after its end must not reach the result.
        mean, _, returns = self.evaluate(ScriptedEnv([[2.0]], [[1.0], [1.0], [1.0]]), 2, 1.0)
        assert returns.tolist() == [[2.0], [3.0]]
        assert mean.values == (2.5,)

    @pytest.mark.parametrize("kind", ["locomotion", "treasure"])
    def test_lockstep_matches_sequential(self, kind):
        # Reference: one episode at a time on a one-copy env, one actor pass
        # per observation, every draw from the same generator.
        if kind == "locomotion":
            factory = lambda: ToyLocomotion(horizon=80, half_width=1.0, contact_limit=4, start_noise=0.8)
        else:
            grid = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
            factory = lambda: boxed_treasure(grid)
        env = factory()
        actor = GaussianPolicyParams(
            mean_net=mlp_init([env.observation_dim, 16, env.action_dim], np.random.default_rng(3), output_gain=10.0),
            log_std=np.zeros(env.action_dim),
        )
        episodes, gamma = 7, 0.97
        _, _, returns = training.evaluate_policy(env, actor, episodes, gamma, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        want, lengths = [], set()
        for _ in range(episodes):
            one = factory()
            obs = one.reset([rng])
            rewards = []
            done = False
            while not done:
                action, _ = mlp_forward(actor.mean_net, obs)
                obs, reward, dones = one.step(action, [rng])
                rewards.append(reward[0])
                done = bool(dones[0])
            lengths.add(len(rewards))
            want.append(gamma ** np.arange(len(rewards)) @ np.array(rewards))
        if kind == "locomotion":
            assert len(lengths) > 1  # episodes end at different steps
        assert returns.shape == (episodes, env.objective_count)
        assert np.max(np.abs(returns - np.array(want))) <= 1e-12

    def test_horizon_cuts_the_planners_policy_short(self):
        # The planner values the untruncated discounted problem; an episode
        # stops at the env's horizon. The richest policy walks four cells
        # to the treasure, so three steps reach nothing and four match.
        grid = TreasureGrid(width=5, height=1, treasures=((0, 4, 10.0),), horizon=3)
        m = treasure_grid_to_tabular(grid, discount=0.9)
        policy, value = value_iteration(m, WeightVector((1.0, 0.0)))
        assert policy.tolist() == [1, 1, 1, 1, 0]
        assert value.values == pytest.approx((7.29, -3.439), abs=1e-12)
        # Linear one-layer actor: state s's mean action is policy[s]'s one-hot row.
        onehot = np.eye(m.num_actions)[policy]
        actor = GaussianPolicyParams(MlpParams((onehot,), (np.zeros(m.num_actions),), ("linear",)), np.zeros(4))
        cut, _, _ = training.evaluate_policy(DiscreteToBox(m, horizon=3), actor, 1, 0.9, np.random.default_rng(0))
        assert cut.values == pytest.approx((0.0, -2.71), abs=1e-12)
        full, _, _ = training.evaluate_policy(DiscreteToBox(m, horizon=4), actor, 1, 0.9, np.random.default_rng(0))
        assert np.max(np.abs(full.array - value.array)) <= 1e-12

    def test_returns_rows_are_episode_sums(self):
        episodes = ([[1.0, 2.0]], [[1.0, 0.0], [1.0, 4.0]], [[0.5, 1.0], [2.0, 0.0], [3.0, 1.0]])
        mean, std, returns = self.evaluate(ScriptedEnv(*episodes), 4, 0.5)
        want = [[1.0, 2.0], [1.5, 2.0], [0.5 + 1.0 + 0.75, 1.0 + 0.25], [1.0, 2.0]]
        assert returns.shape == (4, 2)
        assert returns.tolist() == want
        assert mean.values == tuple(np.mean(want, axis=0))
        assert std.values == tuple(np.std(want, axis=0))
