"""Minimal feed-forward substrate: MLP forward/backward passes with
hand-derived gradients, a diagonal-Gaussian policy head, Adam, and an
exact-round-trip text checkpoint format.

Parameter containers are immutable snapshots; every update produces new
arrays, so rollout workers can hold references without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

CHECKPOINT_MAGIC = "morlkit-checkpoint v1"

_ACTIVATIONS = ("linear", "tanh")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weight matrices (in x out), bias vectors, activation tags."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("layer count mismatch")
        if not self.weights:
            raise ValueError("need at least one layer")
        for tag in self.activations:
            if tag not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {tag!r}")
        prev_out = None
        frozen_w = []
        frozen_b = []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {k} has incompatible shapes {w.shape} / {b.shape}")
            if prev_out is not None and w.shape[0] != prev_out:
                raise ValueError(f"layer {k} input {w.shape[0]} != previous output {prev_out}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k} has non-finite parameters")
            prev_out = w.shape[1]
            frozen_w.append(_freeze(w))
            frozen_b.append(_freeze(b))
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))
        object.__setattr__(self, "activations", tuple(self.activations))

    @property
    def input_dim(self) -> int:
        return int(self.weights[0].shape[0])

    @property
    def output_dim(self) -> int:
        return int(self.weights[-1].shape[1])

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim,) + tuple(int(w.shape[1]) for w in self.weights)


@dataclass(frozen=True)
class GaussianPolicyParams:
    """Diagonal-Gaussian policy: MLP mean head plus a state-independent
    log standard deviation per action dimension."""

    mean_net: MlpParams
    log_std: np.ndarray

    def __post_init__(self) -> None:
        log_std = np.asarray(self.log_std, dtype=float)
        if log_std.shape != (self.mean_net.output_dim,):
            raise ValueError("log_std must match the mean head's output dimension")
        if not np.all(np.isfinite(log_std)):
            raise ValueError("log_std must be finite")
        object.__setattr__(self, "log_std", _freeze(log_std))

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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", tuple(_freeze(a) for a in self.m))
        object.__setattr__(self, "v", tuple(_freeze(a) for a in self.v))


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
    out: list[np.ndarray] = []
    for w, b in zip(p.weights, p.biases):
        out.append(w)
        out.append(b)
    return out


def mlp_from_param_list(template: MlpParams, arrays: Sequence[np.ndarray]) -> MlpParams:
    n = len(template.weights)
    if len(arrays) != 2 * n:
        raise ValueError("parameter list length mismatch")
    return MlpParams(
        tuple(arrays[2 * k] for k in range(n)),
        tuple(arrays[2 * k + 1] for k in range(n)),
        template.activations,
    )


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
    return GaussianPolicyParams(
        mean_net=mlp_from_param_list(template.mean_net, arrays[:-1]),
        log_std=arrays[-1],
    )


def adam_init(params: Sequence[np.ndarray], learning_rate: float, **kwargs) -> AdamState:
    return AdamState(
        m=tuple(np.zeros_like(p) for p in params),
        v=tuple(np.zeros_like(p) for p in params),
        step=0,
        learning_rate=learning_rate,
        **kwargs,
    )


def adam_step(
    state: AdamState, params: Sequence[np.ndarray], grads: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], AdamState]:
    """One bias-corrected Adam descent step on the given gradients."""
    if len(params) != len(state.m) or len(grads) != len(state.m):
        raise ValueError("parameter/gradient count mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient")
    t = state.step + 1
    new_params: list[np.ndarray] = []
    new_m = []
    new_v = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=float)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m_t = state.beta1 * m + (1.0 - state.beta1) * g
        v_t = state.beta2 * v + (1.0 - state.beta2) * g**2
        m_hat = m_t / (1.0 - state.beta1**t)
        v_hat = v_t / (1.0 - state.beta2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps))
        new_m.append(m_t)
        new_v.append(v_t)
    return new_params, replace(state, m=tuple(new_m), v=tuple(new_v), step=t)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a recognized checkpoint file")
    arrays: dict[str, np.ndarray] = {}
    k = 1
    while k < len(lines):
        if not lines[k].strip():
            k += 1
            continue
        head = lines[k].split()
        if head[0] != "array" or len(head) < 3:
            raise ValueError(f"{path}: malformed header at line {k + 1}")
        name = head[1]
        ndim = int(head[2])
        shape = tuple(int(d) for d in head[3 : 3 + ndim])
        values = np.array([float(tok) for tok in lines[k + 1].split()], dtype=float)
        arrays[name] = values.reshape(shape)
        k += 2
    return arrays


_ACT_CODE = {"linear": 0.0, "tanh": 1.0}
_CODE_ACT = {0: "linear", 1: "tanh"}


def mlp_to_arrays(p: MlpParams, prefix: str) -> dict[str, np.ndarray]:
    out = {f"{prefix}.activations": np.array([_ACT_CODE[a] for a in p.activations])}
    for k, (w, b) in enumerate(zip(p.weights, p.biases)):
        out[f"{prefix}.w{k}"] = w
        out[f"{prefix}.b{k}"] = b
    return out


def mlp_from_arrays(arrays: dict[str, np.ndarray], prefix: str) -> MlpParams:
    acts = arrays[f"{prefix}.activations"]
    n = acts.shape[0]
    return MlpParams(
        tuple(arrays[f"{prefix}.w{k}"] for k in range(n)),
        tuple(arrays[f"{prefix}.b{k}"] for k in range(n)),
        tuple(_CODE_ACT[int(a)] for a in acts),
    )


def policy_to_arrays(pol: GaussianPolicyParams, prefix: str = "actor") -> dict[str, np.ndarray]:
    out = mlp_to_arrays(pol.mean_net, f"{prefix}.mean")
    out[f"{prefix}.log_std"] = pol.log_std
    return out


def policy_from_arrays(arrays: dict[str, np.ndarray], prefix: str = "actor") -> GaussianPolicyParams:
    return GaussianPolicyParams(
        mean_net=mlp_from_arrays(arrays, f"{prefix}.mean"),
        log_std=arrays[f"{prefix}.log_std"],
    )
