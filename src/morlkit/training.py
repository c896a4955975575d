"""Training engine: one Gaussian actor, one critic per objective, clipped
policy-gradient updates on a proxy reward channel, and a running coverage
set of the mean critic vectors.

`start` builds a run's `TrainerState`; `run_sequence` advances it through
one objective: each update collects synchronized rollouts from a bank of
environment copies, fits every critic to its own reward channel (one
stacked network bank, one minibatch pass), adds the mean critic vector to
the running coverage set by the membership rule of `ccs`, and ascends the
clipped surrogate on the proxy stream mixed by the objective's
relationship-matrix row. `train` runs one sequence per row. Rollouts stay
time-major; one GAE recursion per update over every copy and channel gives
the critic targets and the actor's advantages, in copy-major rows. The
rows are the identity: selecting them from the coverage set needs a value
oracle that depends on the weight, and the critic bank gives one mean
vector per update. At objective_count=1 this is plain single-objective
training.
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
    is_duplicate,
    pruned,
    relative_improvement,
    scalarized_max,
)
from .core import (
    Iorm,
    ValueVector,
    WeightVector,
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
    mlp_backward,
    mlp_forward,
    mlp_init,
    mlp_stack,
    mlp_unstack,
    mlp_vector,
    mlp_views,
    param_vector,
    policy_param_list,
    policy_views,
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
        # Each message starts with the field it rejects.
        if self.objective_count < 1:
            raise ValueError("objective_count must be >= 1")
        if self.updates_per_objective < 1:
            raise ValueError("updates_per_objective must be >= 1")
        if not 0.0 < self.clip_epsilon < math.inf:
            raise ValueError(f"clip_epsilon must be positive and finite, got {self.clip_epsilon}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must lie in [0, 1]")
        for name in ("steps_per_update", "env_copies", "epochs_per_update", "minibatch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 <= self.termination_epsilon < math.inf:
            raise ValueError(f"termination_epsilon must be >= 0 and finite, got {self.termination_epsilon}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes entries must be >= 1, got {self.hidden_sizes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class CriticBank:
    """One value network per objective."""

    nets: tuple[MlpParams, ...]

    def __post_init__(self) -> None:
        if not self.nets:
            raise ValueError("critic bank must be nonempty")


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
    """One-step temporal-difference errors along axis 0; values carries one
    extra entry for the bootstrap and terminal steps bootstrap with zero.
    Trailing axes are independent streams."""
    if values.shape[0] != rewards.shape[0] + 1:
        raise ValueError("values must have one more entry than rewards")
    if dones.shape[0] != rewards.shape[0]:
        raise ValueError("dones must match rewards length")
    cont = 1.0 - dones.astype(float)
    return rewards + gamma * cont * values[1:] - values[:-1]


def gae(
    deltas: np.ndarray, dones: np.ndarray, gamma: float, lam: float | np.ndarray
) -> np.ndarray:
    """Exponentially weighted advantage estimates, truncated at episode cuts.

    Backward recursion A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    along axis 0. Trailing axes of deltas are independent streams: dones
    covers deltas' leading axes and lam broadcasts over its trailing ones,
    so each channel can have its own lam (at lam=1 on raw rewards the
    result is the discounted reward-to-go).
    """
    out = deltas.copy()
    dones = dones.reshape(dones.shape + (1,) * (out.ndim - dones.ndim))
    keep = np.where(dones, 0.0, gamma * lam)
    for t in range(out.shape[0] - 2, -1, -1):
        out[t] += keep[t] * out[t + 1]
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


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero mean and unit standard deviation, the deviation floored at 1e-8."""
    centered = advantages - advantages.mean()
    return centered / max(float(advantages.std()), 1e-8)


def _working_copy(opt: AdamState) -> AdamState:
    # adam_step writes into the moments; an update must not touch its input.
    return AdamState(opt.m.copy(), opt.v.copy(), opt.step, opt.learning_rate)


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

    Advantages are normalized here, once per update. The actor and its
    moments are copied once into a flat working vector that Adam updates
    in place. A non-finite objective or gradient aborts the update and
    returns the incoming actor and optimizer state.
    """
    aborted = (actor, opt, PpoDiagnostics(0.0, 0.0, aborted=True))
    if not np.all(np.isfinite(advantages)):
        log.warning("non-finite advantages; aborting actor update")
        return aborted
    adv = normalize_advantages(advantages)
    params = param_vector(policy_param_list(actor))
    work, state = policy_views(actor, params), _working_copy(opt)
    n = obs.shape[0]
    clip_fractions: list[float] = []
    kls: list[float] = []
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = perm[start : start + cfg.minibatch_size]
            logp, cache = gaussian_log_prob_with_cache(work, obs[idx], actions[idx])
            objective, dlogp, clip_mask = clipped_surrogate(
                logp, old_log_probs[idx], adv[idx], cfg.clip_epsilon
            )
            if not math.isfinite(objective):
                log.warning("non-finite surrogate; aborting actor update")
                return aborted
            grad = param_vector(gaussian_log_prob_backward(work, cache, -dlogp))
            if not np.isfinite(grad).all():
                log.warning("non-finite gradient; aborting actor update")
                return aborted
            state = adam_step(state, params, grad)
            clip_fractions.append(float(clip_mask.mean()))
            kls.append(float((old_log_probs[idx] - logp).mean()))
    return work, state, PpoDiagnostics(
        clip_fraction=float(np.mean(clip_fractions)),
        approx_kl=float(np.mean(kls)),
    )


def critic_update(
    bank: MlpParams,
    opt: AdamState,
    obs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainerConfig,
    rng: np.random.Generator,
) -> tuple[MlpParams, AdamState]:
    """Minibatch regression of a stacked bank of value heads, lane j onto
    its reward-to-go targets targets[j], in one minibatch pass for all lanes.

    Each lane takes its rows from its own permutations, drawn lane by lane
    with all of a lane's epochs before the next lane's, so lane j sees what
    a separate update of critic j after critics 0..j-1 would. A non-finite
    loss or gradient aborts its lane alone: that lane's network and
    optimizer state return to their incoming values and the other lanes
    carry on. If every lane aborts, the incoming bank and state are returned.
    """
    if not np.all(np.isfinite(targets)):
        raise ValueError("regression targets must be finite")
    lanes = bank.lanes
    n = obs.shape[0]
    perms = np.array(
        [[rng.permutation(n) for _ in range(cfg.epochs_per_update)] for _ in range(lanes[0])]
    )
    rows = np.arange(lanes[0])[:, None]
    params = mlp_vector(bank)
    net, state = mlp_views(bank, params), _working_copy(opt)
    live = np.ones(lanes, dtype=bool)
    for epoch in range(cfg.epochs_per_update):
        for start in range(0, n, cfg.minibatch_size):
            idx = perms[:, epoch, start : start + cfg.minibatch_size]
            pred, cache = mlp_forward(net, obs[idx])
            err = pred[..., 0] - targets[rows, idx]
            loss_ok = np.isfinite((err**2).mean(axis=-1))
            dout = (2.0 * err / err.shape[-1])[..., None]
            grad = param_vector(mlp_backward(net, cache, dout), lanes)
            ok = loss_ok & np.isfinite(grad).all(axis=-1)
            if not ok.all():
                for lane in np.flatnonzero(live & ~ok):
                    what = "gradient" if loss_ok[lane] else "loss"
                    log.warning("non-finite critic %s; aborting critic update", what)
                live &= ok
                if not live.any():
                    return bank, opt
            if not live.all():
                grad[~live] = 0.0
            state = adam_step(state, params, grad)
    if not live.all():
        params[~live] = mlp_vector(bank)[~live]
        state.m[~live] = opt.m[~live]
        state.v[~live] = opt.v[~live]
        state = AdamState(state.m, state.v, np.where(live, state.step, opt.step), state.learning_rate)
    return net, state


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
    return next(w for w, h in zip(pool, entropies) if h >= top - 1e-12)


@dataclass
class RolloutBatch:
    """One synchronized collection phase across all environment copies,
    time-major: index [t, c] is copy c's step t. bootstrap_obs holds each
    copy's observation after its last step."""

    obs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    log_probs: np.ndarray
    bootstrap_obs: np.ndarray
    completed_returns: list[np.ndarray]


@dataclass
class _CollectorState:
    obs: np.ndarray
    return_acc: np.ndarray
    discount_pos: np.ndarray


def _init_collector(env, env_rngs, objective_count: int) -> _CollectorState:
    return _CollectorState(
        obs=env.reset(env_rngs),
        return_acc=np.zeros((len(env_rngs), objective_count)),
        discount_pos=np.zeros(len(env_rngs)),
    )


def collect_rollout(
    env,
    state: _CollectorState,
    actor: GaussianPolicyParams,
    steps: int,
    gamma: float,
    rollout_rng: np.random.Generator,
    env_rngs: Sequence[np.random.Generator],
) -> tuple[RolloutBatch, _CollectorState]:
    """Step every env copy together for the same number of steps under the
    actor, one env call per step; copy c draws from env_rngs[c].

    Episodes continue across collection phases; finished episodes reset
    immediately and their full discounted returns are reported in the batch,
    in step order and, within a step, in copy order. A non-finite reward
    raises ValueError once the phase is collected.
    """
    copies = len(env_rngs)
    act_dim = env.action_dim
    obs_buf = np.empty((steps, copies, env.observation_dim))
    act_buf = np.empty((steps, copies, act_dim))
    rew_buf = np.empty((steps, copies, env.objective_count))
    done_buf = np.zeros((steps, copies), dtype=bool)
    logp_buf = np.empty((steps, copies))
    completed: list[np.ndarray] = []
    disc = np.empty((copies, 1))
    obs = state.obs.copy()
    acc = state.return_acc.copy()
    pos = state.discount_pos.tolist()
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
        obs, rewards, dones = env.step(actions, env_rngs)
        rew_buf[t] = rewards
        done_buf[t] = dones
        # Scalar powers, as libm's pow gives them: numpy's vectorized power
        # can differ in the last bit.
        disc[:, 0] = [gamma**p for p in pos]
        acc += disc * rewards
        pos = [p + 1.0 for p in pos]
        if dones.any():
            ended = np.flatnonzero(dones)
            completed.extend(acc[ended])
            acc[ended] = 0.0
            for c in ended:
                pos[c] = 0.0
            obs[ended] = env.reset(env_rngs, ended)
    bad = ~np.isfinite(rew_buf).all(axis=-1)
    if bad.any():
        t, c = np.argwhere(bad)[0]
        raise ValueError(f"env copy {c} returned a non-finite reward at step {t} of the phase")
    batch = RolloutBatch(
        obs=obs_buf, actions=act_buf, rewards=rew_buf, dones=done_buf, log_probs=logp_buf,
        bootstrap_obs=obs.copy(), completed_returns=completed,
    )
    return batch, _CollectorState(obs=obs, return_acc=acc, discount_pos=np.array(pos))


def _rows(a: np.ndarray) -> np.ndarray:
    """Copy-major rows of a time-major array: copy c's step t is row c*T + t."""
    return a.swapaxes(0, 1).reshape(-1, *a.shape[2:])


def _critic_values(bank: MlpParams, obs: np.ndarray) -> np.ndarray:
    # (n, I), C-contiguous, so that column means sum in a fixed order. One
    # lane at a time: a stacked pass over a whole batch would hold I times
    # the activations at once.
    return np.column_stack([mlp_forward(net, obs)[0][:, 0] for net in mlp_unstack(bank)])


def _targets_and_advantages(
    batch: RolloutBatch,
    row: WeightVector,
    values: np.ndarray,
    bootstrap_values: np.ndarray,
    cfg: TrainerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Critic targets (I, n) and proxy advantages (n,), in copy-major rows.

    values are the critics' copy-major rows. One GAE recursion runs over
    every copy and channel: each reward channel at lambda=1 gives its
    discounted reward-to-go, and the TD residuals of the row-mixed proxy
    reward and value at gae_lambda give the advantages.
    """
    steps, copies, objectives = batch.rewards.shape
    values = values.reshape(copies, steps, objectives).swapaxes(0, 1)
    proxy_values = np.concatenate([values, bootstrap_values[None]]) @ row.array
    proxy_td = td_residuals(batch.rewards @ row.array, proxy_values, batch.dones, cfg.discount)
    lam = np.append(np.ones(objectives), cfg.gae_lambda)
    streams = np.concatenate([batch.rewards, proxy_td[..., None]], axis=-1)
    out = _rows(gae(streams, batch.dones, cfg.discount, lam))
    return out[:, :-1].T, out[:, -1]


def _discounted_sum(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Discounted sum along axis 0 of time-major rewards (steps, ...), taken
    over a contiguous copy: a strided dot product sums in another order."""
    flat = np.ascontiguousarray(rewards).reshape(len(rewards), -1)
    return (gamma ** np.arange(len(rewards), dtype=float) @ flat).reshape(rewards.shape[1:])


def _mean_returns(batch: RolloutBatch, gamma: float) -> tuple[float, ...]:
    if batch.completed_returns:
        return tuple(float(x) for x in np.mean(batch.completed_returns, axis=0))
    # Nothing terminated this phase: report each copy's discounted reward sum.
    partial = [_discounted_sum(batch.rewards[:, c], gamma) for c in range(batch.rewards.shape[1])]
    return tuple(float(x) for x in np.mean(partial, axis=0))


def _delta_probe(
    vbar: ValueVector, running: Sequence[ValueVector]
) -> tuple[float, float]:
    """Improvement of the newest mean critic vector over the running
    coverage set at the uniform probe weight: (absolute gap, gap by
    `relative_improvement`)."""
    probe = uniform_weight(vbar.dim)
    bound = scalarize(probe, vbar)
    if not running:
        return math.inf, 1.0
    surface = scalarized_max(list(running), probe)
    gap = bound - surface
    if gap <= 0.0:
        return 0.0, 0.0
    if bound <= 0.0:
        log.warning("probe bound %r is not positive; logging absolute improvement instead", bound)
    return gap, relative_improvement(bound, surface)


@dataclass
class TrainerState:
    """Everything a run carries from one update to the next, advanced in
    place by run_sequence. The update count is len(metrics)."""

    actor: GaussianPolicyParams
    actor_opt: AdamState
    bank: MlpParams
    bank_opt: AdamState
    collector: _CollectorState
    rollout_rng: np.random.Generator
    minibatch_rng: np.random.Generator
    env_rngs: list[np.random.Generator]
    running_vectors: list[ValueVector]
    metrics: list[UpdateMetrics]


def start(env, cfg: TrainerConfig) -> TrainerState:
    """Fresh state for a run on env, every stream spawned from cfg.seed."""
    if env.objective_count != cfg.objective_count:
        raise ValueError(
            f"environment emits {env.objective_count} reward channels, "
            f"config expects {cfg.objective_count}"
        )
    children = np.random.SeedSequence(cfg.seed).spawn(3 + cfg.env_copies)
    init_rng = np.random.default_rng(children[0])
    obs_dim, act_dim = env.observation_dim, env.action_dim
    actor = GaussianPolicyParams(
        mean_net=mlp_init([obs_dim, *cfg.hidden_sizes, act_dim], init_rng, output_gain=0.01),
        log_std=np.zeros(act_dim),
    )
    bank = mlp_stack(
        [mlp_init([obs_dim, *cfg.hidden_sizes, 1], init_rng) for _ in range(cfg.objective_count)]
    )
    env_rngs = [np.random.default_rng(ss) for ss in children[3:]]
    return TrainerState(
        actor=actor,
        actor_opt=adam_init(param_vector(policy_param_list(actor)), cfg.learning_rate),
        bank=bank,
        bank_opt=adam_init(mlp_vector(bank), cfg.learning_rate),
        collector=_init_collector(env, env_rngs, cfg.objective_count),
        rollout_rng=np.random.default_rng(children[1]),
        minibatch_rng=np.random.default_rng(children[2]),
        env_rngs=env_rngs,
        running_vectors=[],
        metrics=[],
    )


def run_sequence(
    env, state: TrainerState, objective: int, row: WeightVector, cfg: TrainerConfig
) -> bool:
    """Advance state by cfg.updates_per_objective updates on the proxy reward
    mixed by row (collection, critic regression, coverage-set update, proxy
    policy ascent); True if one stops early on cfg.termination_epsilon."""
    for _ in range(cfg.updates_per_objective):
        batch, state.collector = collect_rollout(
            env, state.collector, state.actor, cfg.steps_per_update, cfg.discount,
            state.rollout_rng, state.env_rngs,
        )
        obs = _rows(batch.obs)
        targets, advantages = _targets_and_advantages(
            batch, row, _critic_values(state.bank, obs),
            _critic_values(state.bank, batch.bootstrap_obs), cfg,
        )
        state.bank, state.bank_opt = critic_update(
            state.bank, state.bank_opt, obs, targets, cfg, state.minibatch_rng
        )

        vbar = ValueVector(tuple(_critic_values(state.bank, obs).mean(axis=0)))
        running = state.running_vectors
        delta_abs, delta_r = _delta_probe(vbar, running)
        if not is_duplicate(vbar, running):
            kept = pruned(running + [vbar])
            if kept[-1] is vbar:
                state.running_vectors = kept

        state.actor, state.actor_opt, diag = ppo_actor_update(
            state.actor, state.actor_opt, obs, _rows(batch.actions), _rows(batch.log_probs),
            advantages, cfg, state.minibatch_rng,
        )

        state.metrics.append(
            UpdateMetrics(
                update_index=len(state.metrics),
                objective_index=objective,
                mean_returns=_mean_returns(batch, cfg.discount),
                delta_abs=delta_abs,
                delta_r=delta_r,
                clip_fraction=diag.clip_fraction,
                approx_kl=diag.approx_kl,
            )
        )
        if cfg.termination_epsilon > 0.0 and delta_abs < cfg.termination_epsilon:
            return True
    return False


def train(env_factory: EnvFactory, cfg: TrainerConfig) -> RunArtifacts:
    """Full run: start, then one run_sequence per IORM row until one stops early."""
    env = env_factory()
    state = start(env, cfg)
    iorm = Iorm.identity(cfg.objective_count)
    early_stopped = any(run_sequence(env, state, k, row, cfg) for k, row in enumerate(iorm.rows))
    return RunArtifacts(
        actor=state.actor,
        critics=CriticBank(nets=mlp_unstack(state.bank)),
        iorm=iorm,
        metrics=state.metrics,
        ccs=PartialCcs(tuple(state.running_vectors)),
        early_stopped=early_stopped,
        config=cfg,
    )


def evaluate_policy(
    env,
    actor: GaussianPolicyParams,
    episodes: int,
    gamma: float,
    rng: np.random.Generator,
    max_steps: int = 100_000,
) -> tuple[ValueVector, ValueVector, np.ndarray]:
    """Roll out mean actions for the given number of episodes, run as env
    copies in lockstep: every copy draws from rng, in episode order, and one
    actor pass per step serves them all until every episode has ended
    (copies whose episode has ended keep stepping; their rewards are
    dropped). Returns the per-objective mean and population standard
    deviation of the discounted episode returns, and the returns: an
    (episodes, objectives) array whose row k is episode k's discounted
    reward sum. An episode longer than max_steps raises RuntimeError, a
    non-finite reward ValueError."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rngs = [rng] * episodes
    obs = env.reset(rngs)
    live = np.ones(episodes, dtype=bool)
    rewards, running = [], []
    for _ in range(max_steps):
        actions, _ = mlp_forward(actor.mean_net, obs)
        obs, reward, done = env.step(actions, rngs)
        rewards.append(reward)
        running.append(live.copy())
        live &= ~done
        if not live.any():
            break
    else:
        raise RuntimeError("environment did not terminate within max_steps")
    rewards = np.array(rewards, dtype=float)
    running = np.array(running)[..., None]
    bad = running & ~np.isfinite(rewards)
    if bad.any():
        episode, step = np.argwhere(bad.any(axis=-1).T)[0]
        raise ValueError(f"episode {episode} returned a non-finite reward at step {step}")
    returns = _discounted_sum(np.where(running, rewards, 0.0), gamma)
    return ValueVector(tuple(returns.mean(axis=0))), ValueVector(tuple(returns.std(axis=0))), returns
