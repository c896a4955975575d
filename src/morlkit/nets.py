"""Minimal feed-forward substrate: MLP forward/backward passes with
hand-derived gradients, a diagonal-Gaussian policy head, Adam, and an
exact-round-trip text checkpoint format.

Parameter containers are plain frozen records. Every update returns fresh
arrays and never writes into the ones it was given, so rollout workers can
hold references without copying. Parameters are validated once, where they
enter from outside: the checkpoint readers and loaders reject a malformed
file or array with a CheckpointFormatError that names the line or array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_MAGIC = "morlkit-checkpoint v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointFormatError(ValueError):
    """A checkpoint file or array set that does not describe a network."""


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weight matrices (in x out), bias vectors, activation tags."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]

    @property
    def input_dim(self) -> int:
        return int(self.weights[0].shape[0])

    @property
    def output_dim(self) -> int:
        return int(self.weights[-1].shape[1])


@dataclass(frozen=True)
class GaussianPolicyParams:
    """Diagonal-Gaussian policy: MLP mean head plus a state-independent
    log standard deviation per action dimension."""

    mean_net: MlpParams
    log_std: np.ndarray

    @property
    def action_dim(self) -> int:
        return int(self.log_std.shape[0])


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators aligned with a flat parameter list."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step: int
    learning_rate: float


def _orthogonal(rng: np.random.Generator, n_in: int, n_out: int, gain: float) -> np.ndarray:
    flat = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    return np.ascontiguousarray(gain * q[:n_in, :n_out])


def mlp_init(
    layer_sizes: Sequence[int],
    rng: np.random.Generator,
    output_gain: float = 1.0,
) -> MlpParams:
    """Orthogonal init with gain 1 on hidden tanh layers; the linear output
    layer is scaled by output_gain."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need input and output sizes")
    weights = []
    biases = []
    activations = []
    for k in range(len(sizes) - 1):
        last = k == len(sizes) - 2
        gain = output_gain if last else 1.0
        weights.append(_orthogonal(rng, sizes[k], sizes[k + 1], gain))
        biases.append(np.zeros(sizes[k + 1]))
        activations.append("linear" if last else "tanh")
    return MlpParams(tuple(weights), tuple(biases), tuple(activations))


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Affine + activation composition; cache carries what backward needs."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x.reshape(1, -1) if squeeze else x
    if h.shape[1] != p.input_dim:
        raise ValueError(f"input has {h.shape[1]} features, expected {p.input_dim}")
    inputs = [h]
    posts = []
    for w, b, act in zip(p.weights, p.biases, p.activations):
        z = h @ w + b
        h = np.tanh(z) if act == "tanh" else z
        posts.append(h)
        inputs.append(h)
    out = h[0] if squeeze else h
    return out, (inputs[:-1], posts, squeeze)


def mlp_backward(
    p: MlpParams, cache: tuple, grad_out: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients for all parameters and the input.

    Returns (grads, grad_input) with grads flat as [dW0, db0, dW1, db1, ...].
    The cache must come from a matching mlp_forward call.
    """
    inputs, posts, squeeze = cache
    grad_out = np.asarray(grad_out, dtype=float)
    g = grad_out.reshape(1, -1) if squeeze else grad_out
    if g.shape != posts[-1].shape:
        raise ValueError(f"grad_out shape {g.shape} != output shape {posts[-1].shape}")
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(p.weights))
    for k in range(len(p.weights) - 1, -1, -1):
        if p.activations[k] == "tanh":
            g = g * (1.0 - posts[k] ** 2)
        grads[2 * k] = inputs[k].T @ g
        grads[2 * k + 1] = g.sum(axis=0)
        g = g @ p.weights[k].T
    grad_input = g[0] if squeeze else g
    return grads, grad_input


def mlp_param_list(p: MlpParams) -> list[np.ndarray]:
    """Flat [W0, b0, W1, b1, ...], the order of mlp_backward's gradients."""
    return [a for layer in zip(p.weights, p.biases) for a in layer]


def mlp_from_param_list(template: MlpParams, arrays: Sequence[np.ndarray]) -> MlpParams:
    """Inverse of mlp_param_list, with the template's activations."""
    return MlpParams(tuple(arrays[0::2]), tuple(arrays[1::2]), template.activations)


def gaussian_log_prob_with_cache(
    pol: GaussianPolicyParams, states: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Batched log probabilities plus the cache needed for the backward pass."""
    mean, mcache = mlp_forward(pol.mean_net, states)
    actions = np.asarray(actions, dtype=float)
    std = np.exp(pol.log_std)
    z = (actions - mean) / std
    logp = -0.5 * (z**2).sum(axis=-1) - pol.log_std.sum() - 0.5 * pol.action_dim * LOG_2PI
    return logp, (mcache, z, std)


def gaussian_log_prob_backward(
    pol: GaussianPolicyParams, cache: tuple, grad_logp: np.ndarray
) -> list[np.ndarray]:
    """Gradients of sum(grad_logp * logp) w.r.t. mean-net params and log_std.

    Returns a flat list aligned with policy_param_list.
    """
    mcache, z, std = cache
    grad_logp = np.asarray(grad_logp, dtype=float)
    dmean = (z / std) * grad_logp[:, None]
    net_grads, _ = mlp_backward(pol.mean_net, mcache, dmean)
    dlog_std = ((z**2 - 1.0) * grad_logp[:, None]).sum(axis=0)
    return net_grads + [dlog_std]


def policy_param_list(pol: GaussianPolicyParams) -> list[np.ndarray]:
    return mlp_param_list(pol.mean_net) + [pol.log_std]


def policy_from_param_list(
    template: GaussianPolicyParams, arrays: Sequence[np.ndarray]
) -> GaussianPolicyParams:
    return GaussianPolicyParams(mlp_from_param_list(template.mean_net, arrays[:-1]), arrays[-1])


def adam_init(params: Sequence[np.ndarray], learning_rate: float) -> AdamState:
    return AdamState(
        m=tuple(np.zeros_like(p) for p in params),
        v=tuple(np.zeros_like(p) for p in params),
        step=0,
        learning_rate=learning_rate,
    )


def adam_step(
    state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam descent step on the given gradients.

    Pure arithmetic on fresh arrays: the caller passes finite gradients
    aligned with params.
    """
    t = state.step + 1
    new_params: list[np.ndarray] = []
    new_m, new_v = [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m_t = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v_t = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
        m_hat = m_t / (1.0 - ADAM_BETA1**t)
        v_hat = v_t / (1.0 - ADAM_BETA2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m_t)
        new_v.append(v_t)
    return new_params, AdamState(tuple(new_m), tuple(new_v), t, state.learning_rate)


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Versioned text checkpoint; floats round-trip exactly via repr."""
    lines = [CHECKPOINT_MAGIC]
    for name in sorted(arrays):
        if " " in name or "\n" in name:
            raise ValueError(f"bad array name {name!r}")
        arr = np.asarray(arrays[name], dtype=float)
        shape = " ".join(str(d) for d in arr.shape)
        lines.append(f"array {name} {arr.ndim} {shape}".rstrip())
        lines.append(" ".join(repr(float(x)) for x in arr.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_arrays(path) -> dict[str, np.ndarray]:
    """Inverse of write_arrays; a malformed file raises CheckpointFormatError
    naming the file and line."""

    def error(line: int, problem: str) -> CheckpointFormatError:
        return CheckpointFormatError(f"{path}:{line}: {problem}")

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a recognized checkpoint file")
    arrays: dict[str, np.ndarray] = {}
    k = 1
    while k < len(lines):
        if not lines[k].strip():
            k += 1
            continue
        head = lines[k].split()  # array NAME NDIM D1 .. Dn
        try:
            shape = tuple(int(d) for d in head[3:])
            ok = head[0] == "array" and int(head[2]) == len(shape) and min(shape, default=0) >= 0
        except (IndexError, ValueError):
            ok = False
        if not ok:
            raise error(k + 1, f"malformed array header {lines[k]!r}")
        name = head[1]
        if name in arrays:
            raise error(k + 1, f"array {name!r} appears twice")
        if k + 1 >= len(lines):
            raise error(k + 1, f"array {name!r} has no value line")
        try:
            values = np.array([float(tok) for tok in lines[k + 1].split()], dtype=float)
        except ValueError:
            raise error(k + 2, f"array {name!r} has a non-number value") from None
        if values.size != math.prod(shape):
            raise error(k + 2, f"array {name!r} should hold {math.prod(shape)} values, found {values.size}")
        arrays[name] = values.reshape(shape)
        k += 2
    return arrays


_ACT_CODE = {"linear": 0.0, "tanh": 1.0}
_CODE_ACT = {code: act for act, code in _ACT_CODE.items()}


def _checked(arrays: dict[str, np.ndarray], key: str, shape: tuple) -> np.ndarray:
    """The named array if it has the given shape (None matches any size)
    and only finite values."""
    if key not in arrays:
        raise CheckpointFormatError(f"array {key!r} is missing")
    arr = arrays[key]
    if arr.ndim != len(shape) or any(s is not None and s != n for s, n in zip(shape, arr.shape)):
        want = str(tuple("*" if s is None else s for s in shape)).replace("'", "")
        raise CheckpointFormatError(f"array {key!r} has shape {arr.shape}, expected {want}")
    if not np.all(np.isfinite(arr)):
        raise CheckpointFormatError(f"array {key!r} has non-finite values")
    return arr


def mlp_to_arrays(p: MlpParams, prefix: str) -> dict[str, np.ndarray]:
    out = {f"{prefix}.activations": np.array([_ACT_CODE[a] for a in p.activations])}
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        out[f"{prefix}.w{k}"] = w
        out[f"{prefix}.b{k}"] = b
    return out


def mlp_from_arrays(arrays: dict[str, np.ndarray], prefix: str) -> MlpParams:
    """Checked inverse of mlp_to_arrays: one layer per activation code, each
    weight matrix fed by the previous layer's output."""
    codes = _checked(arrays, f"{prefix}.activations", (None,))
    if codes.size == 0 or any(c not in _CODE_ACT for c in codes):
        raise CheckpointFormatError(
            f"array '{prefix}.activations' must list codes from {sorted(_CODE_ACT)}, "
            f"got {codes.tolist()}"
        )
    weights, biases = [], []
    rows = None
    for k in range(codes.size):
        weights.append(_checked(arrays, f"{prefix}.w{k}", (rows, None)))
        rows = weights[-1].shape[1]
        biases.append(_checked(arrays, f"{prefix}.b{k}", (rows,)))
    return MlpParams(tuple(weights), tuple(biases), tuple(_CODE_ACT[c] for c in codes))


def policy_to_arrays(pol: GaussianPolicyParams, prefix: str = "actor") -> dict[str, np.ndarray]:
    out = mlp_to_arrays(pol.mean_net, f"{prefix}.mean")
    out[f"{prefix}.log_std"] = pol.log_std
    return out


def policy_from_arrays(arrays: dict[str, np.ndarray], prefix: str = "actor") -> GaussianPolicyParams:
    """Checked inverse of policy_to_arrays."""
    mean_net = mlp_from_arrays(arrays, f"{prefix}.mean")
    return GaussianPolicyParams(
        mean_net=mean_net,
        log_std=_checked(arrays, f"{prefix}.log_std", (mean_net.output_dim,)),
    )
