import math

import numpy as np
import pytest

from morlkit.nets import (
    AdamState,
    CheckpointFormatError,
    GaussianPolicyParams,
    MlpParams,
    adam_init,
    adam_step,
    gaussian_log_prob_backward,
    gaussian_log_prob_with_cache,
    mlp_backward,
    mlp_forward,
    mlp_from_arrays,
    mlp_from_param_list,
    mlp_init,
    mlp_param_list,
    mlp_stack,
    mlp_to_arrays,
    mlp_unstack,
    mlp_vector,
    mlp_views,
    param_vector,
    policy_from_arrays,
    policy_from_param_list,
    policy_param_list,
    policy_to_arrays,
    policy_views,
    read_arrays,
    write_arrays,
)
from reference_critic import list_adam_init, list_adam_step


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
        out, _ = mlp_forward(p, np.ones((1, 3)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_identity_linear_layer(self):
        p = MlpParams((np.eye(3),), (np.zeros(3),), ("linear",))
        x = np.array([[0.3, -1.2, 7.0]])
        out, _ = mlp_forward(p, x)
        assert np.array_equal(out, x)

    def test_hand_computed_2_2_1(self):
        # Oracle: tanh([1,1] @ [[1, .5],[-1, .25]] + [.1, -.2]) @ [[2],[-3]] + [.5]
        w0 = np.array([[1.0, 0.5], [-1.0, 0.25]])
        b0 = np.array([0.1, -0.2])
        w1 = np.array([[2.0], [-3.0]])
        b1 = np.array([0.5])
        x = np.array([[1.0, 1.0]])
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
            single, _ = mlp_forward(p, xs[k : k + 1])
            assert np.allclose(single[0], batch_out[k], atol=1e-12)

    def test_dimension_mismatch(self):
        p = mlp_init([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            mlp_forward(p, np.zeros(5))


class TestMlpBackward:
    def test_linear_layer_unit_grad_is_input_outer(self):
        p = MlpParams((np.array([[0.7], [0.3]]),), (np.zeros(1),), ("linear",))
        x = np.array([[2.0, -1.0]])
        _, cache = mlp_forward(p, x)
        grads = mlp_backward(p, cache, np.ones((1, 1)))
        assert np.allclose(grads[0], np.outer(x, np.ones(1)))
        assert np.allclose(grads[1], np.ones(1))

    def test_zero_output_gradient(self):
        p = mlp_init([3, 6, 2], np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((1, 3))
        _, cache = mlp_forward(p, x)
        grads = mlp_backward(p, cache, np.zeros((1, 2)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads)

    def test_matches_central_finite_differences(self):
        # Oracle: central finite differences at h = 1e-5, rel err < 1e-4.
        rng = np.random.default_rng(1234)
        for _ in range(10):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
            p = mlp_init(sizes, rng)
            x = rng.standard_normal((1, sizes[0]))
            probe = rng.standard_normal((1, sizes[-1]))

            def scalar(params):
                net = mlp_from_param_list(p, params)
                out, _ = mlp_forward(net, x)
                return float(out[0] @ probe[0])

            _, cache = mlp_forward(p, x)
            analytic = mlp_backward(p, cache, probe)
            numeric = finite_difference_grads(scalar, mlp_param_list(p))
            assert relative_error(analytic, numeric) < 1e-4


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
        (mean,), _ = mlp_forward(pol.mean_net, s[None])
        assert self.log_prob(pol, s, mean) == pytest.approx(
            -1.5 * math.log(2 * math.pi), abs=1e-12
        )

    def test_doubling_std_drops_mode_logprob_by_d_ln2(self):
        rng = np.random.default_rng(0)
        pol = self.make_policy(rng, action_dim=2, log_std=0.0)
        wide = GaussianPolicyParams(pol.mean_net, pol.log_std + math.log(2.0))
        s = rng.standard_normal(3)
        (mean,), _ = mlp_forward(pol.mean_net, s[None])
        drop = self.log_prob(pol, s, mean) - self.log_prob(wide, s, mean)
        assert drop == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_matches_scalar_gaussian_product(self):
        # Oracle: product of independent one-dimensional Gaussian densities.
        rng = np.random.default_rng(3)
        pol = self.make_policy(rng, action_dim=2, log_std=-0.25)
        s = rng.standard_normal(3)
        a = rng.standard_normal(2)
        (mean,), _ = mlp_forward(pol.mean_net, s[None])
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


class TestStackedNetworks:
    """A stack runs through the same forward and backward code as its
    lanes, and each lane's results equal the lone network's bit for bit."""

    @staticmethod
    def nets(count, sizes=(3, 8, 6, 1)):
        rng = np.random.default_rng(40 + count)
        return [mlp_init(sizes, rng) for _ in range(count)]

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_forward_backward_match_each_lane(self, count):
        nets = self.nets(count)
        stack = mlp_stack(nets)
        rng = np.random.default_rng(7)
        per_lane = rng.standard_normal((count, 13, 3))
        shared = rng.standard_normal((13, 3))
        probe = rng.standard_normal((count, 13, 1))
        for x, lane_x in ((per_lane, lambda i: per_lane[i]), (shared, lambda i: shared)):
            out, cache = mlp_forward(stack, x)
            grads = mlp_backward(stack, cache, probe)
            assert out.shape == (count, 13, 1)
            for i, net in enumerate(nets):
                lone, lone_cache = mlp_forward(net, lane_x(i))
                lone_grads = mlp_backward(net, lone_cache, probe[i])
                assert np.array_equal(out[i], lone)
                assert all(np.array_equal(g[i], h) for g, h in zip(grads, lone_grads))

    def test_single_input(self):
        nets = self.nets(3)
        x = np.array([[0.5, -1.0, 2.0]])
        out, cache = mlp_forward(mlp_stack(nets), x)
        grads = mlp_backward(mlp_stack(nets), cache, np.ones((3, 1, 1)))
        assert out.shape == (3, 1, 1)
        for i, net in enumerate(nets):
            lone, lone_cache = mlp_forward(net, x)
            assert np.array_equal(out[i], lone)
            lone_grads = mlp_backward(net, lone_cache, np.ones((1, 1)))
            assert all(np.array_equal(g[i], h) for g, h in zip(grads, lone_grads))

    def test_stack_round_trip(self):
        nets = self.nets(3)
        back = mlp_unstack(mlp_stack(nets))
        assert len(back) == 3
        for a, b in zip(nets, back):
            assert a.activations == b.activations
            assert all(np.array_equal(x, y) for x, y in zip(mlp_param_list(a), mlp_param_list(b)))
        with pytest.raises(ValueError, match="activations"):
            mlp_stack([nets[0], MlpParams(nets[1].weights, nets[1].biases, ("tanh",) * 3)])


class TestFlatParameters:
    def test_views_share_the_vector(self):
        for net in (mlp_init([3, 5, 2], np.random.default_rng(1)), mlp_stack(TestStackedNetworks.nets(2))):
            flat = mlp_vector(net)
            assert flat.shape == net.lanes + (sum(a[(0,) * len(net.lanes)].size for a in mlp_param_list(net)),)
            view = mlp_views(net, flat)
            assert all(np.array_equal(a, b) for a, b in zip(mlp_param_list(view), mlp_param_list(net)))
            assert all(np.shares_memory(a, flat) for a in mlp_param_list(view))
            flat += 1.0
            assert np.array_equal(view.weights[0], net.weights[0] + 1.0)

    def test_policy_views(self):
        pol = GaussianPolicyParams(mlp_init([4, 8, 2], np.random.default_rng(2)), np.array([0.1, -0.2]))
        flat = param_vector(policy_param_list(pol))
        view = policy_views(pol, flat)
        assert all(np.array_equal(a, b) for a, b in zip(policy_param_list(view), policy_param_list(pol)))
        assert np.shares_memory(view.log_std, flat) and view.mean_net.activations == pol.mean_net.activations

    def test_layout_mismatch_rejected(self):
        net = mlp_init([3, 5, 2], np.random.default_rng(1))
        with pytest.raises(ValueError, match="layout needs"):
            mlp_views(net, np.zeros(mlp_vector(net).size + 1))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, 2.0, 3.0])
        state = adam_init(params, 1e-3)
        new_state = adam_step(state, params, np.zeros(3))
        assert np.array_equal(params, [1.0, 2.0, 3.0])
        assert state.step.shape == new_state.step.shape == ()  # one network has no lanes
        assert new_state.step == 1

    def test_first_step_magnitude_is_learning_rate(self):
        params = np.array([5.0])
        state = adam_init(params, 0.01)
        adam_step(state, params, np.array([7.3]))
        step = 5.0 - params[0]
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
        params = np.array([1.0])
        state = adam_init(params, lr)
        for _ in range(2):
            state = adam_step(state, params, np.array([g]))
        assert params[0] == pytest.approx(theta, abs=1e-15)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(11)
            params = mlp_vector(mlp_init([2, 4, 1], rng))
            state = adam_init(params, 1e-3)
            for _ in range(5):
                state = adam_step(state, params, np.full_like(params, 0.1))
            return params

        assert np.array_equal(run(), run())

    def test_flat_step_matches_per_array_reference(self):
        # Oracle: per-array Adam on the parameter list, bit for bit.
        rng = np.random.default_rng(12)
        net = mlp_init([3, 6, 2], rng)
        arrays = mlp_param_list(net)
        ref_state = list_adam_init(arrays, 1e-2)
        flat = mlp_vector(net)
        state = adam_init(flat, 1e-2)
        for _ in range(4):
            grads = [rng.standard_normal(a.shape) for a in arrays]
            arrays, ref_state = list_adam_step(ref_state, arrays, grads)
            state = adam_step(state, flat, param_vector(grads))
        assert np.array_equal(flat, param_vector(arrays))
        assert np.array_equal(state.m, param_vector(ref_state.m))
        assert np.array_equal(state.v, param_vector(ref_state.v))
        assert state.step == ref_state.step == 4

    def test_stack_lanes_count_their_own_steps(self):
        # Oracle: each lane stepped as a separate vector, bit for bit, with
        # lane 1 two steps ahead of the others.
        rng = np.random.default_rng(13)
        lone = []
        for lane in range(3):
            row = rng.standard_normal(5)
            state = adam_init(row, 1e-2)
            for _ in range(2 if lane == 1 else 0):
                state = adam_step(state, row, np.full(5, 0.3))
            lone.append((row, state))
        flat = np.array([row for row, _ in lone])
        state = AdamState(
            np.array([st.m for _, st in lone]), np.array([st.v for _, st in lone]),
            np.array([st.step for _, st in lone]), 1e-2,
        )
        assert adam_init(flat, 1e-2).step.tolist() == [0, 0, 0]
        for _ in range(3):
            grads = rng.standard_normal((3, 5))
            state = adam_step(state, flat, grads)
            lone = [(row, adam_step(st, row, g)) for (row, st), g in zip(lone, grads)]
        assert state.step.tolist() == [3, 5, 3]
        for i, (row, st) in enumerate(lone):
            assert np.array_equal(flat[i], row)
            assert np.array_equal(state.m[i], st.m) and np.array_equal(state.v[i], st.v)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("array x 1 3\n1.0 2.0\n", ":3: array 'x' should hold 3 values, found 2"),
            ("array x 1 3\n", ":2: array 'x' has no value line"),
            ("array x 1.5 3\n1.0 2.0 3.0\n", ":2: malformed array header"),
            ("array x 2 3\n1.0 2.0 3.0\n", ":2: malformed array header"),
            ("vector x 1 3\n1.0 2.0 3.0\n", ":2: malformed array header"),
            ("array x 1 1\n1.0\narray x 1 1\n2.0\n", ":4: array 'x' appears twice"),
            ("array x 1 1\none\n", ":3: array 'x' has a non-number value"),
        ],
        ids=["short-line", "no-value-line", "non-integer-ndim", "ndim-mismatch", "keyword",
             "duplicate", "non-number"],
    )
    def test_malformed_file_names_line(self, tmp_path, text, message):
        path = tmp_path / "bad.ckpt"
        path.write_text("morlkit-checkpoint v1\n" + text)
        with pytest.raises(CheckpointFormatError, match=message):
            read_arrays(path)

    def test_empty_and_scalar_arrays_round_trip(self, tmp_path):
        arrays = {"empty": np.zeros((2, 0)), "scalar": np.array(2.5)}
        path = tmp_path / "odd.ckpt"
        write_arrays(path, arrays)
        loaded = read_arrays(path)
        assert loaded["empty"].shape == (2, 0) and loaded["scalar"].shape == ()
        assert float(loaded["scalar"]) == 2.5

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("net.b1"), "array 'net.b1' is missing"),
            (lambda a: a.update({"net.w1": np.ones((3, 2))}), r"array 'net.w1' has shape \(3, 2\), expected \(4, \*\)"),
            (lambda a: a.update({"net.b0": np.ones(3)}), r"array 'net.b0' has shape \(3,\), expected \(4,\)"),
            (lambda a: a.update({"net.w0": np.ones(4)}), r"array 'net.w0' has shape \(4,\), expected \(\*, \*\)"),
            (lambda a: a.update({"net.activations": np.array([1.0, 2.0])}), "codes from"),
            (lambda a: a.update({"net.activations": np.array([0.5, 0.0])}), "codes from"),
            (lambda a: a.update({"net.activations": np.zeros(0)}), "codes from"),
            (lambda a: a["net.w1"].__setitem__((0, 0), np.inf), "array 'net.w1' has non-finite values"),
        ],
        ids=["missing", "layer-chain", "bias", "weight-ndim", "unknown-code", "fractional-code",
             "no-layers", "inf"],
    )
    def test_mlp_loader_names_bad_array(self, edit, message):
        arrays = mlp_to_arrays(mlp_init([3, 4, 2], np.random.default_rng(5)), "net")
        arrays = {k: v.copy() for k, v in arrays.items()}
        edit(arrays)
        with pytest.raises(CheckpointFormatError, match=message):
            mlp_from_arrays(arrays, "net")

    @pytest.mark.parametrize(
        "log_std, message",
        [(np.zeros(3), r"has shape \(3,\), expected \(2,\)"), (np.array([0.0, np.nan]), "has non-finite values")],
        ids=["shape", "nan"],
    )
    def test_policy_loader_checks_log_std(self, log_std, message):
        pol = GaussianPolicyParams(mlp_init([4, 8, 2], np.random.default_rng(6)), np.zeros(2))
        arrays = policy_to_arrays(pol)
        arrays["actor.log_std"] = log_std
        with pytest.raises(CheckpointFormatError, match=f"'actor.log_std' {message}"):
            policy_from_arrays(arrays)

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
