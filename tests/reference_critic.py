"""Per-network critic regression with per-array Adam, kept as a test reference.

`morlkit.training.critic_update` trains a stacked bank of critics in one
minibatch pass, with parameters and Adam moments in one flat vector per
bank. This module is the earlier form of the same update, one network at
a time over lists of arrays, written out independently so that the bank
can be checked against it bit for bit: lane j of the bank must equal this
update run on critic j, drawing its epochs' permutations from the same
generator right after critics 0..j-1 drew theirs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from morlkit.nets import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MlpParams, mlp_backward, mlp_forward

log = logging.getLogger("morlkit.training")


@dataclass(frozen=True)
class ListAdamState:
    """Moments aligned with the list [W0, b0, W1, b1, ...]."""

    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step: int
    learning_rate: float


def list_adam_init(params, learning_rate: float) -> ListAdamState:
    zeros = tuple(np.zeros_like(p) for p in params)
    return ListAdamState(zeros, zeros, 0, learning_rate)


def list_adam_step(state: ListAdamState, params, grads):
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m_t = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v_t = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
        m_hat = m_t / (1.0 - ADAM_BETA1**t)
        v_hat = v_t / (1.0 - ADAM_BETA2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
        new_m.append(m_t)
        new_v.append(v_t)
    return new_params, ListAdamState(tuple(new_m), tuple(new_v), t, state.learning_rate)


def reference_critic_update(
    net: MlpParams,
    opt: ListAdamState,
    obs: np.ndarray,
    targets: np.ndarray,
    epochs: int,
    minibatch_size: int,
    rng: np.random.Generator,
) -> tuple[MlpParams, ListAdamState]:
    """Minibatch regression of one value head onto its targets; a
    non-finite loss or gradient returns the incoming network and state."""
    snapshot = (net, opt)
    n = obs.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, minibatch_size):
            idx = perm[start : start + minibatch_size]
            pred, cache = mlp_forward(net, obs[idx])
            err = pred[:, 0] - targets[idx]
            loss = float((err**2).mean())
            if not math.isfinite(loss):
                log.warning("non-finite critic loss; aborting critic update")
                return snapshot
            dout = (2.0 * err / err.shape[0])[:, None]
            grads = mlp_backward(net, cache, dout)
            if not all(np.all(np.isfinite(g)) for g in grads):
                log.warning("non-finite critic gradient; aborting critic update")
                return snapshot
            params = [a for layer in zip(net.weights, net.biases) for a in layer]
            params, opt = list_adam_step(opt, params, grads)
            net = MlpParams(tuple(params[0::2]), tuple(params[1::2]), net.activations)
    return net, opt
