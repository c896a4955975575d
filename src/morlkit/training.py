"""Training engine: one Gaussian actor, one critic per objective, clipped
policy-gradient updates on a proxy reward channel, and a running coverage
set of the mean critic vectors.

The engine cycles through objectives; for each it repeatedly collects
synchronized rollouts from a bank of environment copies, fits every critic
to its own reward channel, adds the mean critic vector to the running
coverage set, and ascends the clipped surrogate on the proxy stream mixed
by the objective's relationship-matrix row. The rows are the identity:
selecting them from the coverage set needs a value oracle that depends on
the weight, and the critic bank gives one mean vector per update.
At objective_count=1 this is plain single-objective training.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ccs import (
    AolsResult,
    PartialCcs,
    is_convex_undominated,
    relative_improvement,
    scalarized_max,
)
from .core import (
    Iorm,
    TrajectoryBatch,
    ValueVector,
    WeightVector,
    discounted_return,
    empirical_value_estimate,
    scalarize,
    simplex_extremum,
    uniform_weight,
)
from .nets import (
    AdamState,
    GaussianPolicyParams,
    LOG_2PI,
    MlpParams,
    adam_init,
    adam_step,
    gaussian_log_prob_backward,
    gaussian_log_prob_with_cache,
    mlp_forward,
    mlp_from_param_list,
    mlp_init,
    mlp_param_list,
    mlp_backward,
    policy_from_param_list,
    policy_param_list,
)

log = logging.getLogger(__name__)

EnvFactory = Callable[[], object]


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters for the multi-objective training engine."""

    objective_count: int
    updates_per_objective: int
    clip_epsilon: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    steps_per_update: int = 2048
    env_copies: int = 8
    epochs_per_update: int = 10
    minibatch_size: int = 64
    learning_rate: float = 3e-4
    termination_epsilon: float = 0.0
    hidden_sizes: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.objective_count < 1:
            raise ValueError("objective_count must be >= 1")
        if self.updates_per_objective < 1:
            raise ValueError("updates_per_objective must be >= 1")
        if self.clip_epsilon <= 0.0:
            raise ValueError("clip_epsilon must be positive")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        for name in ("steps_per_update", "env_copies", "epochs_per_update", "minibatch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.termination_epsilon < 0.0:
            raise ValueError("termination_epsilon must be >= 0")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class CriticBank:
    """One value network per objective."""

    nets: tuple[MlpParams, ...]

    def __post_init__(self) -> None:
        if not self.nets:
            raise ValueError("critic bank must be nonempty")

    @property
    def size(self) -> int:
        return len(self.nets)


@dataclass(frozen=True)
class PpoDiagnostics:
    clip_fraction: float
    approx_kl: float
    aborted: bool = False


@dataclass(frozen=True)
class UpdateMetrics:
    update_index: int
    objective_index: int
    mean_returns: tuple[float, ...]
    delta_abs: float
    delta_r: float
    clip_fraction: float
    approx_kl: float


@dataclass
class RunArtifacts:
    actor: GaussianPolicyParams
    critics: CriticBank
    iorm: Iorm
    metrics: list[UpdateMetrics]
    ccs: PartialCcs
    early_stopped: bool
    config: TrainerConfig


def td_residuals(
    rewards: np.ndarray, values: np.ndarray, dones: np.ndarray, gamma: float
) -> np.ndarray:
    """One-step temporal-difference errors; values carries one extra entry
    for the bootstrap and terminal steps bootstrap with zero."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    if values.shape[0] != rewards.shape[0] + 1:
        raise ValueError("values must have one more entry than rewards")
    if dones.shape[0] != rewards.shape[0]:
        raise ValueError("dones must match rewards length")
    cont = 1.0 - dones.astype(float)
    return rewards + gamma * cont * values[1:] - values[:-1]


def gae(
    deltas: np.ndarray, dones: np.ndarray, gamma: float, lam: float
) -> np.ndarray:
    """Exponentially weighted advantage estimates, truncated at episode cuts.

    Backward recursion A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}.
    """
    deltas = np.asarray(deltas, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    if deltas.shape[0] < 1:
        raise ValueError("deltas must be nonempty")
    out = np.empty_like(deltas)
    acc = 0.0
    decay = gamma * lam
    for t in range(deltas.shape[0] - 1, -1, -1):
        acc = deltas[t] + decay * (0.0 if dones[t] else acc)
        out[t] = acc
    return out


def rewards_to_go(rewards: np.ndarray, dones: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted reward tails within each episode."""
    rewards = np.asarray(rewards, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    if rewards.shape[0] < 1:
        raise ValueError("rewards must be nonempty")
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.shape[0] - 1, -1, -1):
        acc = rewards[t] + gamma * (0.0 if dones[t] else acc)
        out[t] = acc
    return out


def clipped_surrogate(
    log_probs_new: np.ndarray,
    log_probs_old: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Clipped importance-ratio objective.

    Returns (mean objective, per-sample gradient of the mean objective with
    respect to the new log probabilities, clipped-region mask). Samples in
    the clipped region contribute exactly zero gradient.
    """
    ratio = np.exp(log_probs_new - log_probs_old)
    unclipped = ratio * advantages
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * advantages
    objective = np.minimum(unclipped, clipped)
    active = unclipped <= clipped
    grad = np.where(active, ratio * advantages, 0.0) / len(ratio)
    clip_mask = ~active
    return float(objective.mean()), grad, clip_mask


def normalize_advantages(advantages: np.ndarray, std_floor: float = 1e-8) -> np.ndarray:
    advantages = np.asarray(advantages, dtype=float)
    centered = advantages - advantages.mean()
    return centered / max(float(advantages.std()), std_floor)


def ppo_actor_update(
    actor: GaussianPolicyParams,
    opt: AdamState,
    obs: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    cfg: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[GaussianPolicyParams, AdamState, PpoDiagnostics]:
    """Epochs of minibatch ascent on the clipped surrogate.

    Advantages are normalized here, once per update. A non-finite objective
    or gradient aborts the update and restores the incoming snapshot.
    """
    snapshot = (actor, opt)
    if not np.all(np.isfinite(advantages)):
        log.warning("non-finite advantages; aborting actor update")
        return snapshot[0], snapshot[1], PpoDiagnostics(0.0, 0.0, aborted=True)
    adv = normalize_advantages(advantages)
    n = obs.shape[0]
    clip_fractions: list[float] = []
    kls: list[float] = []
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = perm[start : start + cfg.minibatch_size]
            logp, cache = gaussian_log_prob_with_cache(actor, obs[idx], actions[idx])
            objective, dlogp, clip_mask = clipped_surrogate(
                logp, old_log_probs[idx], adv[idx], cfg.clip_epsilon
            )
            if not math.isfinite(objective):
                log.warning("non-finite surrogate; aborting actor update")
                return snapshot[0], snapshot[1], PpoDiagnostics(0.0, 0.0, aborted=True)
            grads = gaussian_log_prob_backward(actor, cache, -dlogp)
            try:
                params, opt = adam_step(opt, policy_param_list(actor), grads)
            except ValueError:
                log.warning("non-finite gradient; aborting actor update")
                return snapshot[0], snapshot[1], PpoDiagnostics(0.0, 0.0, aborted=True)
            actor = policy_from_param_list(actor, params)
            clip_fractions.append(float(clip_mask.mean()))
            kls.append(float((old_log_probs[idx] - logp).mean()))
    return actor, opt, PpoDiagnostics(
        clip_fraction=float(np.mean(clip_fractions)),
        approx_kl=float(np.mean(kls)),
    )


def critic_update(
    net: MlpParams,
    opt: AdamState,
    obs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[MlpParams, AdamState]:
    """Minibatch regression of one value head onto its reward-to-go targets."""
    if not np.all(np.isfinite(targets)):
        raise ValueError("regression targets must be finite")
    snapshot = (net, opt)
    n = obs.shape[0]
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = perm[start : start + cfg.minibatch_size]
            pred, cache = mlp_forward(net, obs[idx])
            err = pred[:, 0] - targets[idx]
            loss = float((err**2).mean())
            if not math.isfinite(loss):
                log.warning("non-finite critic loss; aborting critic update")
                return snapshot
            dout = (2.0 * err / err.shape[0])[:, None]
            grads, _ = mlp_backward(net, cache, dout)
            try:
                params, opt = adam_step(opt, mlp_param_list(net), grads)
            except ValueError:
                log.warning("non-finite critic gradient; aborting critic update")
                return snapshot
            net = mlp_from_param_list(net, params)
    return net, opt


def _weight_entropy(w: WeightVector) -> float:
    return -sum(p * math.log(p) for p in w.weights if p > 0.0)


def iorm_row_select(
    result: AolsResult, objective_index: int, critic_values: ValueVector
) -> WeightVector:
    """Best marginal weight for one objective row.

    Candidates are the explored weights whose component for this objective is
    weakly their largest; among them the one maximizing the scalarized critic
    value wins, with near-ties resolved toward the higher-entropy (more
    interior) weight. Falls back to the plain extremum when nothing qualifies.

    train does not call this: on AOLS over a constant oracle it always
    returns the extremum. It stays because perfbench/tracing.py wraps it by
    name.
    """
    if not result.explored_weights:
        raise ValueError("result has no explored weights")
    dim = critic_values.dim
    candidates = [
        w
        for w in result.explored_weights
        if w[objective_index] >= max(w.weights) - 1e-12
    ]
    if not candidates:
        return simplex_extremum(dim, objective_index)
    scores = [scalarize(w, critic_values) for w in candidates]
    best = max(scores)
    pool = [w for w, s in zip(candidates, scores) if s >= best - 1e-9]
    entropies = [_weight_entropy(w) for w in pool]
    top = max(entropies)
    for w, h in zip(pool, entropies):
        if h >= top - 1e-12:
            return w
    return pool[0]


@dataclass
class RolloutBatch:
    """One synchronized collection phase across all environment copies."""

    traj: TrajectoryBatch
    stream_slices: list[slice]
    bootstrap_obs: np.ndarray
    completed_returns: list[np.ndarray]


@dataclass
class _CollectorState:
    obs: np.ndarray
    return_acc: np.ndarray
    discount_pos: np.ndarray


def _init_collector(env_list, env_rngs, objective_count: int) -> _CollectorState:
    obs = np.array([env.reset(rng) for env, rng in zip(env_list, env_rngs)])
    return _CollectorState(
        obs=obs,
        return_acc=np.zeros((len(env_list), objective_count)),
        discount_pos=np.zeros(len(env_list)),
    )


def collect_rollout(
    env_list: Sequence,
    state: _CollectorState,
    actor: GaussianPolicyParams,
    steps: int,
    gamma: float,
    rollout_rng: np.random.Generator,
    env_rngs: Sequence[np.random.Generator],
) -> tuple[RolloutBatch, _CollectorState]:
    """Run every env copy for the same number of steps under the actor.

    Episodes continue across collection phases; finished episodes reset
    immediately and their full discounted returns are reported in the batch.
    """
    copies = len(env_list)
    obs_dim = env_list[0].observation_dim
    act_dim = env_list[0].action_dim
    objectives = env_list[0].objective_count
    obs_buf = np.empty((steps, copies, obs_dim))
    act_buf = np.empty((steps, copies, act_dim))
    rew_buf = np.empty((steps, copies, objectives))
    done_buf = np.zeros((steps, copies), dtype=bool)
    logp_buf = np.empty((steps, copies))
    completed: list[np.ndarray] = []
    obs = state.obs.copy()
    acc = state.return_acc.copy()
    pos = state.discount_pos.copy()
    std = np.exp(actor.log_std)
    log_std_sum = float(actor.log_std.sum())
    for t in range(steps):
        mean, _ = mlp_forward(actor.mean_net, obs)
        noise = rollout_rng.standard_normal((copies, act_dim))
        actions = mean + std * noise
        logp = -0.5 * (noise**2).sum(axis=1) - log_std_sum - 0.5 * act_dim * LOG_2PI
        obs_buf[t] = obs
        act_buf[t] = actions
        logp_buf[t] = logp
        for c, env in enumerate(env_list):
            nxt, reward, done = env.step(actions[c], env_rngs[c])
            rew_buf[t, c] = reward
            done_buf[t, c] = done
            acc[c] += gamma ** pos[c] * reward
            pos[c] += 1.0
            if done:
                completed.append(acc[c].copy())
                acc[c] = 0.0
                pos[c] = 0.0
                obs[c] = env.reset(env_rngs[c])
            else:
                obs[c] = nxt
    def stitched(a: np.ndarray) -> np.ndarray:
        return np.concatenate([a[:, c] for c in range(copies)], axis=0)

    dones = stitched(done_buf[:, :, None])[:, 0].astype(bool)
    starts: list[int] = []
    for c in range(copies):
        base = c * steps
        starts.append(base)
        starts.extend(base + t + 1 for t in range(steps - 1) if done_buf[t, c])
    traj = TrajectoryBatch(
        states=stitched(obs_buf),
        actions=stitched(act_buf),
        rewards=stitched(rew_buf),
        dones=dones,
        log_probs=stitched(logp_buf[:, :, None])[:, 0],
        episode_starts=tuple(sorted(starts)),
    )
    batch = RolloutBatch(
        traj=traj,
        stream_slices=[slice(c * steps, (c + 1) * steps) for c in range(copies)],
        bootstrap_obs=obs.copy(),
        completed_returns=completed,
    )
    return batch, _CollectorState(obs=obs, return_acc=acc, discount_pos=pos)


def _critic_values(nets: Sequence[MlpParams], obs: np.ndarray) -> np.ndarray:
    return np.column_stack([mlp_forward(net, obs)[0][:, 0] for net in nets])


def _proxy_advantages(
    batch: RolloutBatch,
    row: WeightVector,
    values: np.ndarray,
    bootstrap_values: np.ndarray,
    cfg: TrainerConfig,
) -> np.ndarray:
    """GAE on the row-mixed proxy reward and proxy value channel."""
    proxy_rewards = batch.traj.rewards @ row.array
    proxy_values = values @ row.array
    proxy_boot = bootstrap_values @ row.array
    dones = batch.traj.dones
    pieces = []
    for c, sl in enumerate(batch.stream_slices):
        vals = np.append(proxy_values[sl], proxy_boot[c])
        deltas = td_residuals(proxy_rewards[sl], vals, dones[sl], cfg.discount)
        pieces.append(gae(deltas, dones[sl], cfg.discount, cfg.gae_lambda))
    return np.concatenate(pieces)


def _rtg_targets(batch: RolloutBatch, objective: int, cfg: TrainerConfig) -> np.ndarray:
    rewards = batch.traj.rewards[:, objective]
    dones = batch.traj.dones
    return np.concatenate(
        [rewards_to_go(rewards[sl], dones[sl], cfg.discount) for sl in batch.stream_slices]
    )


def _mean_returns(batch: RolloutBatch, gamma: float) -> tuple[float, ...]:
    if batch.completed_returns:
        return tuple(float(x) for x in np.mean(batch.completed_returns, axis=0))
    # Nothing terminated this phase: report partial segment sums.
    partial = [
        discounted_return(batch.traj, j, gamma).values
        for j in range(batch.traj.num_episodes)
    ]
    return tuple(float(x) for x in np.mean(partial, axis=0))


def _delta_probe(
    vbar: ValueVector, running: Sequence[ValueVector]
) -> tuple[float, float]:
    """Improvement of the newest mean critic vector over the running
    coverage set at the uniform probe weight: (absolute gap, relative gap)."""
    probe = uniform_weight(vbar.dim)
    bound = scalarize(probe, vbar)
    if not running:
        return math.inf, 1.0
    surface, _ = scalarized_max(list(running), probe)
    gap = bound - surface
    if gap <= 0.0:
        return 0.0, 0.0
    try:
        rel = relative_improvement(bound, surface)
    except ZeroDivisionError:
        log.warning("zero probe bound; logging absolute improvement instead")
        rel = gap
    if bound < 0.0:
        log.warning("negative probe bound; logging absolute improvement instead")
        rel = gap
    return gap, rel


def _update_running_ccs(vectors: list[ValueVector], vbar: ValueVector) -> None:
    if any(float(np.max(np.abs(vbar.array - v.array))) <= 1e-6 for v in vectors):
        return
    if not is_convex_undominated(vbar, vectors):
        return
    vectors.append(vbar)
    vectors[:] = [
        v
        for k, v in enumerate(vectors)
        if is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
    ]


def _make_rngs(cfg: TrainerConfig):
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(3 + cfg.env_copies)
    init_rng = np.random.default_rng(children[0])
    rollout_rng = np.random.default_rng(children[1])
    minibatch_rng = np.random.default_rng(children[2])
    env_rngs = [np.random.default_rng(ss) for ss in children[3:]]
    return init_rng, rollout_rng, minibatch_rng, env_rngs


def _init_networks(cfg: TrainerConfig, obs_dim: int, act_dim: int, init_rng):
    actor = GaussianPolicyParams(
        mean_net=mlp_init([obs_dim, *cfg.hidden_sizes, act_dim], init_rng, output_gain=0.01),
        log_std=np.zeros(act_dim),
    )
    critics = [
        mlp_init([obs_dim, *cfg.hidden_sizes, 1], init_rng)
        for _ in range(cfg.objective_count)
    ]
    actor_opt = adam_init(policy_param_list(actor), cfg.learning_rate)
    critic_opts = [adam_init(mlp_param_list(c), cfg.learning_rate) for c in critics]
    return actor, critics, actor_opt, critic_opts


def train(env_factory: EnvFactory, cfg: TrainerConfig) -> RunArtifacts:
    """Full multi-objective run: objective sequences outer, collection /
    critic regression / coverage-set update / proxy policy ascent inner."""
    env_list = [env_factory() for _ in range(cfg.env_copies)]
    if env_list[0].objective_count != cfg.objective_count:
        raise ValueError(
            f"environment emits {env_list[0].objective_count} reward channels, "
            f"config expects {cfg.objective_count}"
        )
    obs_dim = env_list[0].observation_dim
    act_dim = env_list[0].action_dim
    init_rng, rollout_rng, minibatch_rng, env_rngs = _make_rngs(cfg)
    actor, critics, actor_opt, critic_opts = _init_networks(cfg, obs_dim, act_dim, init_rng)
    iorm = Iorm.identity(cfg.objective_count)
    collector = _init_collector(env_list, env_rngs, cfg.objective_count)
    running_vectors: list[ValueVector] = []
    metrics: list[UpdateMetrics] = []
    update_index = 0
    early = False

    for objective in range(cfg.objective_count):
        row = iorm.rows[objective]
        for _ in range(cfg.updates_per_objective):
            batch, collector = collect_rollout(
                env_list, collector, actor, cfg.steps_per_update, cfg.discount,
                rollout_rng, env_rngs,
            )
            snapshot_values = _critic_values(critics, batch.traj.states)
            snapshot_boot = _critic_values(critics, batch.bootstrap_obs)

            for j in range(cfg.objective_count):
                targets = _rtg_targets(batch, j, cfg)
                critics[j], critic_opts[j] = critic_update(
                    critics[j], critic_opts[j], batch.traj.states, targets, cfg,
                    minibatch_rng,
                )

            updated_values = _critic_values(critics, batch.traj.states)
            vbar = ValueVector(tuple(updated_values.mean(axis=0)))
            delta_abs, delta_r = _delta_probe(vbar, running_vectors)
            _update_running_ccs(running_vectors, vbar)

            advantages = _proxy_advantages(batch, row, snapshot_values, snapshot_boot, cfg)
            actor, actor_opt, diag = ppo_actor_update(
                actor, actor_opt, batch.traj.states, batch.traj.actions,
                batch.traj.log_probs, advantages, cfg, minibatch_rng,
            )

            metrics.append(
                UpdateMetrics(
                    update_index=update_index,
                    objective_index=objective,
                    mean_returns=_mean_returns(batch, cfg.discount),
                    delta_abs=delta_abs,
                    delta_r=delta_r,
                    clip_fraction=diag.clip_fraction,
                    approx_kl=diag.approx_kl,
                )
            )
            update_index += 1
            if cfg.termination_epsilon > 0.0 and delta_abs < cfg.termination_epsilon:
                early = True
                break
        if early:
            break

    return RunArtifacts(
        actor=actor,
        critics=CriticBank(nets=tuple(critics)),
        iorm=iorm,
        metrics=metrics,
        ccs=PartialCcs(tuple(running_vectors), ()),
        early_stopped=early,
        config=cfg,
    )


def evaluate_policy(
    env,
    actor: GaussianPolicyParams,
    episodes: int,
    gamma: float,
    rng: np.random.Generator,
    max_steps: int = 100_000,
) -> tuple[ValueVector, ValueVector, TrajectoryBatch]:
    """Roll out deterministic (mean) actions and report per-objective
    discounted return mean and population standard deviation."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    states = []
    actions = []
    rewards = []
    dones = []
    starts = []
    total = 0
    for _ in range(episodes):
        obs = env.reset(rng)
        starts.append(total)
        for _ in range(max_steps):
            action, _ = mlp_forward(actor.mean_net, obs)
            nxt, reward, done = env.step(action, rng)
            states.append(obs)
            actions.append(action)
            rewards.append(reward)
            dones.append(done)
            total += 1
            obs = nxt
            if done:
                break
        else:
            raise RuntimeError("environment did not terminate within max_steps")
    traj = TrajectoryBatch(
        states=np.array(states),
        actions=np.array(actions),
        rewards=np.array(rewards),
        dones=np.array(dones, dtype=bool),
        log_probs=np.zeros(total),
        episode_starts=tuple(starts),
    )
    mean, std = empirical_value_estimate(traj, gamma)
    return mean, std, traj
