"""Minimal feed-forward substrate: MLP forward/backward passes with
hand-derived gradients, a diagonal-Gaussian policy head, Adam on flat
parameter vectors, and an exact-round-trip text checkpoint format.

Parameter containers are plain frozen records. A stack of I networks of
one shape (the critic bank) is the same record with a leading lane axis:
weights (I, in, out) and biases (I, out), run by the same forward and
backward code through matmul broadcasting. For Adam a network's parameters
and moments live in one contiguous float64 vector, shape (P,) or (I, P)
lane-major, with per-layer views into it (param_vector, mlp_views,
policy_views). adam_step writes into that vector and the moments; the
training updates first copy their incoming parameters and moments into a
fresh working vector, so an update returns fresh arrays and never writes
into the ones it was given, and rollout workers can hold references
without copying. Parameters are validated once, where they enter from
outside: the checkpoint readers and loaders reject a malformed file or
array with a CheckpointFormatError that names the line or array.

Network inputs are float64 batches, (n, d) or (I, n, d) for a stack, and
the forward, backward and log-density functions do plain arithmetic on
them, with no conversion or width check per call. A wrong width still
fails in matmul; the one place where a network meets inputs it was not
built for, an actor checkpoint loaded for a run, checks the actor's
widths against the run's environment (morlkit.cli.load_actor).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
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
    """Per-layer weight matrices (in x out), bias vectors, activation tags.

    A stack of I networks of one shape has weights (I, in, out) and biases
    (I, out); lane i is network i.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]

    @property
    def input_dim(self) -> int:
        return int(self.weights[0].shape[-2])

    @property
    def output_dim(self) -> int:
        return int(self.weights[-1].shape[-1])

    @property
    def lanes(self) -> tuple[int, ...]:
        """(I,) for a stack of I networks, () for one network."""
        return self.weights[0].shape[:-2]


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
    """First/second moments shaped like a flat parameter vector, (P,) or
    (I, P) for a stack, and the steps taken: an int, or an int array with
    one count per lane for a stack."""

    m: np.ndarray
    v: np.ndarray
    step: int | np.ndarray
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


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine + activation composition over a float64 batch x (n, d).

    A stack of I networks takes one batch shared by every lane, or one
    batch per lane (I, n, d), and returns its outputs lane first. The cache
    is the list of layer activations, input first, which mlp_backward reads.
    """
    biases = [b[:, None, :] for b in p.biases] if p.weights[0].ndim == 3 else p.biases
    acts = [x]
    for w, b, act in zip(p.weights, biases, p.activations):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if act == "tanh" else z)
    return acts[-1], acts


def mlp_backward(p: MlpParams, acts: list[np.ndarray], grad_out: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of all parameters, flat as [dW0, db0, dW1, db1, ...],
    each shaped like its parameter (lane first for a stack). acts is the
    cache of a matching mlp_forward call, and grad_out is shaped like its
    output.
    """
    if grad_out.shape != acts[-1].shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != output shape {acts[-1].shape}")
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(p.weights))
    g = grad_out
    for k in range(len(p.weights) - 1, -1, -1):
        if p.activations[k] == "tanh":
            g = g * (1.0 - acts[k + 1] ** 2)
        grads[2 * k] = acts[k].swapaxes(-1, -2) @ g
        grads[2 * k + 1] = g.sum(axis=-2)
        if k > 0:
            g = g @ p.weights[k].swapaxes(-1, -2)
    return grads


def mlp_param_list(p: MlpParams) -> list[np.ndarray]:
    """Flat [W0, b0, W1, b1, ...], the order of mlp_backward's gradients."""
    return [a for layer in zip(p.weights, p.biases) for a in layer]


def mlp_from_param_list(template: MlpParams, arrays: Sequence[np.ndarray]) -> MlpParams:
    """Inverse of mlp_param_list, with the template's activations."""
    return MlpParams(tuple(arrays[0::2]), tuple(arrays[1::2]), template.activations)


def mlp_stack(nets: Sequence[MlpParams]) -> MlpParams:
    """Same-shape networks as one stack (fresh arrays); lane i is nets[i]."""
    if any(net.activations != nets[0].activations for net in nets):
        raise ValueError("stacked networks must share their activations")
    return MlpParams(
        tuple(np.stack(ws) for ws in zip(*(net.weights for net in nets))),
        tuple(np.stack(bs) for bs in zip(*(net.biases for net in nets))),
        nets[0].activations,
    )


def mlp_unstack(stack: MlpParams) -> tuple[MlpParams, ...]:
    """The stack's lanes as separate networks (views into its arrays)."""
    return tuple(
        MlpParams(
            tuple(w[i] for w in stack.weights), tuple(b[i] for b in stack.biases), stack.activations
        )
        for i in range(stack.lanes[0])
    )


def param_vector(arrays: Sequence[np.ndarray], lanes: tuple[int, ...] = ()) -> np.ndarray:
    """The arrays in order in one fresh contiguous float64 vector, shape
    lanes + (P,): lane-major when every array leads with the lane axes."""
    return np.concatenate([a.reshape(lanes + (-1,)) for a in arrays], axis=-1)


def mlp_vector(p: MlpParams) -> np.ndarray:
    """param_vector of the network's [W0, b0, W1, b1, ...], per lane for a stack."""
    return param_vector(mlp_param_list(p), p.lanes)


def _views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    lanes = flat.shape[:-1]
    views = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[..., start:stop].reshape(lanes + shape))
        start = stop
    if start != flat.shape[-1]:
        raise ValueError(f"vector holds {flat.shape[-1]} values, layout needs {start}")
    return views


def mlp_views(template: MlpParams, flat: np.ndarray) -> MlpParams:
    """The template's network with every array a view into flat, laid out
    as mlp_vector lays it out; writing into flat updates the network."""
    lead = len(template.lanes)
    arrays = _views(flat, [a.shape[lead:] for a in mlp_param_list(template)])
    return MlpParams(tuple(arrays[0::2]), tuple(arrays[1::2]), template.activations)


def gaussian_log_prob_with_cache(
    pol: GaussianPolicyParams, states: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Batched log probabilities plus the cache needed for the backward pass."""
    mean, mcache = mlp_forward(pol.mean_net, states)
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
    dmean = (z / std) * grad_logp[:, None]
    dlog_std = ((z**2 - 1.0) * grad_logp[:, None]).sum(axis=0)
    return mlp_backward(pol.mean_net, mcache, dmean) + [dlog_std]


def policy_param_list(pol: GaussianPolicyParams) -> list[np.ndarray]:
    return mlp_param_list(pol.mean_net) + [pol.log_std]


def policy_from_param_list(
    template: GaussianPolicyParams, arrays: Sequence[np.ndarray]
) -> GaussianPolicyParams:
    return GaussianPolicyParams(mlp_from_param_list(template.mean_net, arrays[:-1]), arrays[-1])


def policy_views(template: GaussianPolicyParams, flat: np.ndarray) -> GaussianPolicyParams:
    """The template's policy as views into flat, laid out as
    param_vector(policy_param_list(template)) lays it out."""
    split = flat.shape[-1] - template.action_dim
    return GaussianPolicyParams(mlp_views(template.mean_net, flat[:split]), flat[split:])


def adam_init(params: np.ndarray, learning_rate: float) -> AdamState:
    """Zero moments for a flat parameter vector (P,) or a stack's (I, P)."""
    step = 0 if params.ndim == 1 else np.zeros(params.shape[:-1], dtype=np.int64)
    return AdamState(np.zeros_like(params), np.zeros_like(params), step, learning_rate)


def _bias_correction(beta: float, t: int | np.ndarray) -> float | np.ndarray:
    # Python float powers, one per lane as an (I, 1) column for a stack.
    if isinstance(t, int):
        return 1.0 - beta**t
    return np.array([[1.0 - beta**k] for k in t.tolist()])


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray) -> AdamState:
    """One bias-corrected Adam descent step, in place.

    Writes the new parameters into params and the new moments into
    state.m and state.v, and returns the state with its step count
    advanced. Plain arithmetic: the caller passes finite gradients shaped
    like params.
    """
    t = state.step + 1
    m, v = state.m, state.v
    # Two scratch arrays. The operations keep the rounding order of
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    # params -= (lr m_hat) / (sqrt(v_hat) + eps), so a run gives the same
    # bits as Adam written out per array.
    work = (1.0 - ADAM_BETA1) * grads
    m *= ADAM_BETA1
    m += work
    np.square(grads, out=work)
    work *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += work
    denom = v / _bias_correction(ADAM_BETA2, t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, _bias_correction(ADAM_BETA1, t), out=work)
    work *= state.learning_rate
    work /= denom
    params -= work
    return AdamState(m, v, t, state.learning_rate)


def write_text_atomic(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory,
    then rename it over path: a write that fails or a process that dies
    midway leaves path as it was, never half written.

    There is deliberately no fsync, so the write is atomic but not durable:
    after an operating-system crash or power loss the file may hold its old
    contents or none. Every artifact can be rebuilt by rerunning the same
    config and seed, so a flush to disk per file would buy nothing a rerun
    does not give."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Versioned text checkpoint, written atomically; floats round-trip
    exactly via repr."""
    lines = [CHECKPOINT_MAGIC]
    for name in sorted(arrays):
        if name.split() != [name]:  # one token with no whitespace
            raise ValueError(f"bad array name {name!r}")
        arr = np.asarray(arrays[name], dtype=float)
        shape = " ".join(str(d) for d in arr.shape)
        lines.append(f"array {name} {arr.ndim} {shape}".rstrip())
        lines.append(" ".join(repr(float(x)) for x in arr.ravel()))
    write_text_atomic(path, "\n".join(lines) + "\n")


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


def policy_to_arrays(pol: GaussianPolicyParams) -> dict[str, np.ndarray]:
    """The policy's arrays, named actor.mean.* and actor.log_std."""
    out = mlp_to_arrays(pol.mean_net, "actor.mean")
    out["actor.log_std"] = pol.log_std
    return out


def policy_from_arrays(arrays: dict[str, np.ndarray]) -> GaussianPolicyParams:
    """Checked inverse of policy_to_arrays."""
    mean_net = mlp_from_arrays(arrays, "actor.mean")
    return GaussianPolicyParams(
        mean_net=mean_net,
        log_std=_checked(arrays, "actor.log_std", (mean_net.output_dim,)),
    )
