import math

import numpy as np
import pytest

from morlkit.nets import (
    AdamState,
    GaussianPolicyParams,
    MlpParams,
    adam_init,
    adam_step,
    gaussian_log_prob_backward,
    gaussian_log_prob_with_cache,
    mlp_backward,
    mlp_forward,
    mlp_from_param_list,
    mlp_init,
    mlp_param_list,
    policy_from_arrays,
    policy_from_param_list,
    policy_param_list,
    policy_to_arrays,
    read_arrays,
    write_arrays,
)


def finite_difference_grads(fn, params, h=1e-5):
    """Central finite differences of a scalar function over a parameter list."""
    grads = []
    for k, p in enumerate(params):
        g = np.zeros(p.shape)
        for idx in range(p.size):
            bump = np.zeros(p.shape)
            bump.flat[idx] = h
            plus = [q.copy() for q in params]
            minus = [q.copy() for q in params]
            plus[k] = p + bump
            minus[k] = p - bump
            g.flat[idx] = (fn(plus) - fn(minus)) / (2 * h)
        grads.append(g)
    return grads


def relative_error(a, b):
    num = max(np.max(np.abs(x - y)) for x, y in zip(a, b))
    den = max(1e-8, max(np.max(np.abs(x)) for x in b))
    return num / den


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        p = MlpParams(
            weights=(np.zeros((3, 4)), np.zeros((4, 2))),
            biases=(np.zeros(4), np.zeros(2)),
            activations=("tanh", "linear"),
        )
        out, _ = mlp_forward(p, np.ones(3))
        assert np.array_equal(out, np.zeros(2))

    def test_identity_linear_layer(self):
        p = MlpParams((np.eye(3),), (np.zeros(3),), ("linear",))
        x = np.array([0.3, -1.2, 7.0])
        out, _ = mlp_forward(p, x)
        assert np.array_equal(out, x)

    def test_hand_computed_2_2_1(self):
        # Oracle: tanh([1,1] @ [[1, .5],[-1, .25]] + [.1, -.2]) @ [[2],[-3]] + [.5]
        w0 = np.array([[1.0, 0.5], [-1.0, 0.25]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[2.0], [-3.0]])
        b1 = np.array([0.5])
        x = np.array([1.0, 1.0])
        hidden = np.tanh(x @ w0 + b0)
        expected = hidden @ w1 + b1
        p = MlpParams((w0, w1), (b0, b1), ("tanh", "linear"))
        out, _ = mlp_forward(p, x)
        assert out == pytest.approx(expected, abs=1e-15)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(0)
        p = mlp_init([3, 8, 2], rng)
        xs = rng.standard_normal((5, 3))
        batch_out, _ = mlp_forward(p, xs)
        for k in range(5):
            single, _ = mlp_forward(p, xs[k])
            assert np.allclose(single, batch_out[k], atol=1e-12)

    def test_dimension_mismatch(self):
        p = mlp_init([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros(5))


class TestMlpBackward:
    def test_linear_layer_unit_grad_is_input_outer(self):
        p = MlpParams((np.array([[0.7], [0.3]]),), (np.zeros(1),), ("linear",))
        x = np.array([2.0, -1.0])
        _, cache = mlp_forward(p, x)
        grads, dx = mlp_backward(p, cache, np.ones(1))
        assert np.allclose(grads[0], np.outer(x, np.ones(1)))
        assert np.allclose(grads[1], np.ones(1))
        assert np.allclose(dx, p.weights[0][:, 0])

    def test_zero_output_gradient(self):
        p = mlp_init([3, 6, 2], np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal(3)
        _, cache = mlp_forward(p, x)
        grads, dx = mlp_backward(p, cache, np.zeros(2))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)
        assert np.array_equal(dx, np.zeros(3))

    def test_matches_central_finite_differences(self):
        # Oracle: central finite differences at h = 1e-5, rel err < 1e-4.
        rng = np.random.default_rng(1234)
        for _ in range(10):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
            p = mlp_init(sizes, rng)
            x = rng.standard_normal(sizes[0])
            probe = rng.standard_normal(sizes[-1])

            def scalar(params):
                net = mlp_from_param_list(p, params)
                out, _ = mlp_forward(net, x)
                return float(out @ probe)

            _, cache = mlp_forward(p, x)
            analytic, _ = mlp_backward(p, cache, probe)
            numeric = finite_difference_grads(scalar, mlp_param_list(p))
            assert relative_error(analytic, numeric) < 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        p = mlp_init([4, 6, 3], rng)
        x = rng.standard_normal(4)
        probe = rng.standard_normal(3)
        _, cache = mlp_forward(p, x)
        _, dx = mlp_backward(p, cache, probe)
        h = 1e-5
        for k in range(4):
            bump = np.zeros(4)
            bump[k] = h
            up, _ = mlp_forward(p, x + bump)
            dn, _ = mlp_forward(p, x - bump)
            numeric = float((up - dn) @ probe) / (2 * h)
            assert abs(numeric - dx[k]) < 1e-4 * max(1.0, abs(numeric))


class TestGaussianPolicy:
    def make_policy(self, rng, state_dim=3, action_dim=2, log_std=0.0):
        return GaussianPolicyParams(
            mean_net=mlp_init([state_dim, 8, action_dim], rng, output_gain=0.01),
            log_std=np.full(action_dim, float(log_std)),
        )

    @staticmethod
    def log_prob(pol, s, a) -> float:
        logp, _ = gaussian_log_prob_with_cache(pol, s[None], np.asarray(a)[None])
        return float(logp[0])

    def test_mode_density(self):
        rng = np.random.default_rng(0)
        pol = self.make_policy(rng, action_dim=3)
        s = rng.standard_normal(3)
        mean, _ = mlp_forward(pol.mean_net, s)
        assert self.log_prob(pol, s, mean) == pytest.approx(
            -1.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_doubling_std_drops_mode_logprob_by_d_ln2(self):
        rng = np.random.default_rng(0)
        pol = self.make_policy(rng, action_dim=2, log_std=0.0)
        wide = GaussianPolicyParams(pol.mean_net, pol.log_std + math.log(2.0))
        s = rng.standard_normal(3)
        mean, _ = mlp_forward(pol.mean_net, s)
        drop = self.log_prob(pol, s, mean) - self.log_prob(wide, s, mean)
        assert drop == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_matches_scalar_gaussian_product(self):
        # Oracle: product of independent one-dimensional Gaussian densities.
        rng = np.random.default_rng(3)
        pol = self.make_policy(rng, action_dim=2, log_std=-0.25)
        s = rng.standard_normal(3)
        a = rng.standard_normal(2)
        mean, _ = mlp_forward(pol.mean_net, s)
        std = np.exp(pol.log_std)
        expected = 0.0
        for k in range(2):
            expected += (
                -0.5 * ((a[k] - mean[k]) / std[k]) ** 2
                - math.log(std[k])
                - 0.5 * math.log(2 * math.pi)
            )
        assert self.log_prob(pol, s, a) == pytest.approx(expected, abs=1e-12)

    def test_density_integrates_to_one_on_grid(self):
        rng = np.random.default_rng(4)
        pol = self.make_policy(rng, state_dim=2, action_dim=1, log_std=0.1)
        s = rng.standard_normal(2)
        grid = np.linspace(-8, 8, 4001)
        logp, _ = gaussian_log_prob_with_cache(pol, np.tile(s, (grid.size, 1)), grid[:, None])
        densities = np.exp(logp)
        integral = np.trapezoid(densities, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_log_prob_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        pol = self.make_policy(rng, state_dim=2, action_dim=2, log_std=-0.3)
        states = rng.standard_normal((4, 2))
        actions = rng.standard_normal((4, 2))
        coeff = rng.standard_normal(4)

        def scalar(params):
            p = policy_from_param_list(pol, params)
            logp, _ = gaussian_log_prob_with_cache(p, states, actions)
            return float(coeff @ logp)

        logp, cache = gaussian_log_prob_with_cache(pol, states, actions)
        analytic = gaussian_log_prob_backward(pol, cache, coeff)
        numeric = finite_difference_grads(scalar, policy_param_list(pol))
        assert relative_error(analytic, numeric) < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = [np.array([1.0, 2.0]), np.array([[3.0]])]
        state = adam_init(params, 1e-3)
        new_params, new_state = adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
        assert all(np.array_equal(a, b) for a, b in zip(params, new_params))
        assert new_state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = [np.array([5.0])]
        state = adam_init(params, 0.01)
        new_params, _ = adam_step(state, params, [np.array([7.3])])
        step = params[0][0] - new_params[0][0]
        assert step == pytest.approx(0.01, rel=1e-6)

    def test_two_steps_match_scalar_reference(self):
        # Oracle: hand-rolled scalar Adam with the same defaults.
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        g = 2.0
        theta, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        params = [np.array([1.0])]
        state = adam_init(params, lr)
        for _ in range(2):
            params, state = adam_step(state, params, [np.array([g])])
        assert params[0][0] == pytest.approx(theta, abs=1e-15)

    def test_non_finite_gradient_rejected(self):
        params = [np.array([1.0])]
        state = adam_init(params, 1e-3)
        with pytest.raises(ValueError):
            adam_step(state, params, [np.array([float("nan")])])

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(11)
            p = mlp_init([2, 4, 1], rng)
            params = mlp_param_list(p)
            state = adam_init(params, 1e-3)
            for _ in range(5):
                grads = [np.full_like(q, 0.1) for q in params]
                params, state = adam_step(state, params, grads)
            return params

        a = run()
        b = run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestCheckpoints:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        arrays = {
            "a.w": rng.standard_normal((3, 4)),
            "a.b": rng.standard_normal(4),
            "scalarish": np.array([1.0 / 3.0]),
        }
        path = tmp_path / "params.ckpt"
        write_arrays(path, arrays)
        loaded = read_arrays(path)
        assert set(loaded) == set(arrays)
        for key in arrays:
            assert np.array_equal(loaded[key], arrays[key])

    def test_policy_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        pol = GaussianPolicyParams(
            mean_net=mlp_init([4, 8, 2], rng, output_gain=0.01),
            log_std=rng.standard_normal(2),
        )
        path = tmp_path / "actor.ckpt"
        write_arrays(path, policy_to_arrays(pol))
        loaded = policy_from_arrays(read_arrays(path))
        assert loaded.mean_net.activations == pol.mean_net.activations
        for a, b in zip(policy_param_list(loaded), policy_param_list(pol)):
            assert np.array_equal(a, b)

    def test_rejects_unknown_file(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            read_arrays(path)

    def test_byte_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(23)
        arrays = {"x": rng.standard_normal((2, 2))}
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        write_arrays(p1, arrays)
        write_arrays(p2, read_arrays(p1))
        assert p1.read_bytes() == p2.read_bytes()


class TestInitDeterminism:
    def test_same_seed_same_parameters(self):
        a = mlp_init([3, 16, 2], np.random.default_rng(77))
        b = mlp_init([3, 16, 2], np.random.default_rng(77))
        for x, y in zip(mlp_param_list(a), mlp_param_list(b)):
            assert np.array_equal(x, y)

    def test_orthogonal_columns(self):
        p = mlp_init([8, 4, 2], np.random.default_rng(3))
        w = p.weights[0]
        assert np.allclose(w.T @ w, np.eye(4), atol=1e-10)
