"""Independent single-objective training loop.

`morlkit.training.train` at objective_count=1 must reproduce this loop bit
for bit (acceptance criterion 5). It is written out on its own, without the
relationship-matrix rows or the shared coverage-set update of `train`, so
that the comparison checks the engine's reduction rather than the engine
against itself.
"""

from __future__ import annotations

import numpy as np

from morlkit.ccs import PartialCcs, is_convex_undominated
from morlkit.core import Iorm, ValueVector, WeightVector, scalarize, simplex_extremum
from morlkit.training import (
    CriticBank,
    EnvFactory,
    RunArtifacts,
    TrainerConfig,
    UpdateMetrics,
    _critic_values,
    _delta_probe,
    _init_collector,
    _init_networks,
    _make_rngs,
    _mean_returns,
    _proxy_advantages,
    _rtg_targets,
    collect_rollout,
    critic_update,
    ppo_actor_update,
)


def train_single_objective(env_factory: EnvFactory, cfg: TrainerConfig) -> RunArtifacts:
    """Reference single-objective clipped policy-gradient loop.

    Trains on a one-channel environment with the same collection, critic
    regression, and actor update primitives as the full engine, but none of
    the relationship-matrix machinery. It is the reduction target the full
    engine must match bit for bit when objective_count is one.
    """
    if cfg.objective_count != 1:
        raise ValueError("reference trainer expects objective_count == 1")
    env_list = [env_factory() for _ in range(cfg.env_copies)]
    if env_list[0].objective_count != 1:
        raise ValueError("reference trainer expects a one-channel environment")
    obs_dim = env_list[0].observation_dim
    act_dim = env_list[0].action_dim
    init_rng, rollout_rng, minibatch_rng, env_rngs = _make_rngs(cfg)
    actor, critics, actor_opt, critic_opts = _init_networks(cfg, obs_dim, act_dim, init_rng)
    collector = _init_collector(env_list, env_rngs, 1)
    running_vectors: list[ValueVector] = []
    running_obs: list[tuple[WeightVector, float]] = []
    metrics: list[UpdateMetrics] = []

    for update_index in range(cfg.updates_per_objective):
        batch, collector = collect_rollout(
            env_list, collector, actor, cfg.steps_per_update, cfg.discount,
            rollout_rng, env_rngs,
        )
        snapshot_values = _critic_values(critics, batch.traj.states)
        snapshot_boot = _critic_values(critics, batch.bootstrap_obs)

        targets = _rtg_targets(batch, 0, cfg)
        critics[0], critic_opts[0] = critic_update(
            critics[0], critic_opts[0], batch.traj.states, targets, cfg, minibatch_rng
        )

        updated_values = _critic_values(critics, batch.traj.states)
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
        unit = simplex_extremum(1, 0)
        running_obs.append((unit, scalarize(unit, vbar)))

        row = unit
        advantages = _proxy_advantages(batch, row, snapshot_values, snapshot_boot, cfg)
        actor, actor_opt, diag = ppo_actor_update(
            actor, actor_opt, batch.traj.states, batch.traj.actions,
            batch.traj.log_probs, advantages, cfg, minibatch_rng,
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
        critics=CriticBank(nets=tuple(critics)),
        iorm=Iorm.identity(1),
        metrics=metrics,
        ccs=PartialCcs(tuple(running_vectors), tuple(running_obs)),
        early_stopped=False,
        config=cfg,
    )
