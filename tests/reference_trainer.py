"""Independent single-objective training loop.

`morlkit.training.train` at objective_count=1 must reproduce this loop bit
for bit (acceptance criterion 5). It is written out on its own, without the
relationship-matrix rows or the shared coverage-set update of `train`, so
that the comparison checks the engine's reduction rather than the engine
against itself. It stitches each rollout into copy-major rows itself and
runs one 1-D GAE recursion per env copy and quantity, where `train` runs
one recursion over every copy and channel at once.
"""

from __future__ import annotations

import numpy as np

from morlkit.ccs import PartialCcs, is_convex_undominated
from morlkit.core import Iorm, ValueVector
from morlkit.nets import mlp_unstack
from morlkit.training import (
    CriticBank,
    EnvFactory,
    RunArtifacts,
    TrainerConfig,
    UpdateMetrics,
    _critic_values,
    _delta_probe,
    _mean_returns,
    collect_rollout,
    critic_update,
    gae,
    ppo_actor_update,
    start,
    td_residuals,
)


def copy_major(a: np.ndarray) -> np.ndarray:
    """Stitch a time-major (steps, copies, ...) array into copy-major rows."""
    return np.concatenate([a[:, c] for c in range(a.shape[1])], axis=0)


def per_copy_returns(batch, values, boot, cfg):
    """Reward-to-go targets and GAE advantages of the single channel, one
    1-D recursion per env copy, in copy-major rows."""
    steps = batch.rewards.shape[0]
    targets, advantages = [], []
    for c in range(batch.rewards.shape[1]):
        rewards, dones = batch.rewards[:, c, 0], batch.dones[:, c]
        targets.append(gae(rewards, dones, cfg.discount, 1.0))
        vals = np.append(values[c * steps : (c + 1) * steps, 0], boot[c, 0])
        deltas = td_residuals(rewards, vals, dones, cfg.discount)
        advantages.append(gae(deltas, dones, cfg.discount, cfg.gae_lambda))
    return np.concatenate(targets), np.concatenate(advantages)


def train_single_objective(env_factory: EnvFactory, cfg: TrainerConfig) -> RunArtifacts:
    """Reference single-objective clipped policy-gradient loop.

    Trains on a one-channel environment with the same collection, critic
    regression, and actor update primitives as the full engine, but none of
    the relationship-matrix machinery. It is the reduction target the full
    engine must match bit for bit when objective_count is one.
    """
    if cfg.objective_count != 1:
        raise ValueError("reference trainer expects objective_count == 1")
    env = env_factory()
    if env.objective_count != 1:
        raise ValueError("reference trainer expects a one-channel environment")
    # Only the setup is shared with train; the loop below reads the fresh
    # state's fields into locals and never touches the state again.
    state = start(env, cfg)
    actor, actor_opt, critic, critic_opt = state.actor, state.actor_opt, state.bank, state.bank_opt
    collector, rollout_rng, minibatch_rng = state.collector, state.rollout_rng, state.minibatch_rng
    env_rngs = state.env_rngs
    running_vectors: list[ValueVector] = []
    metrics: list[UpdateMetrics] = []

    for update_index in range(cfg.updates_per_objective):
        batch, collector = collect_rollout(
            env, collector, actor, cfg.steps_per_update, cfg.discount,
            rollout_rng, env_rngs,
        )
        states = copy_major(batch.obs)
        snapshot_values = _critic_values(critic, states)
        snapshot_boot = _critic_values(critic, batch.bootstrap_obs)
        targets, advantages = per_copy_returns(batch, snapshot_values, snapshot_boot, cfg)

        # The critic is a bank of one lane.
        critic, critic_opt = critic_update(
            critic, critic_opt, states, targets[None, :], cfg, minibatch_rng
        )

        updated_values = _critic_values(critic, states)
        vbar = ValueVector(tuple(updated_values.mean(axis=0)))
        delta_abs, delta_r = _delta_probe(vbar, running_vectors)
        if (
            all(float(np.max(np.abs(vbar.array - v.array))) > 1e-6 for v in running_vectors)
            and is_convex_undominated(vbar, running_vectors)
        ):
            running_vectors.append(vbar)
            running_vectors[:] = [
                v
                for k, v in enumerate(running_vectors)
                if is_convex_undominated(
                    v, running_vectors[:k] + running_vectors[k + 1 :]
                )
            ]

        actor, actor_opt, diag = ppo_actor_update(
            actor, actor_opt, states, copy_major(batch.actions),
            copy_major(batch.log_probs), advantages, cfg, minibatch_rng,
        )
        metrics.append(
            UpdateMetrics(
                update_index=update_index,
                objective_index=0,
                mean_returns=_mean_returns(batch, cfg.discount),
                delta_abs=delta_abs,
                delta_r=delta_r,
                clip_fraction=diag.clip_fraction,
                approx_kl=diag.approx_kl,
            )
        )

    return RunArtifacts(
        actor=actor,
        critics=CriticBank(nets=mlp_unstack(critic)),
        iorm=Iorm.identity(1),
        metrics=metrics,
        ccs=PartialCcs(tuple(running_vectors)),
        early_stopped=False,
        config=cfg,
    )
