"""Desk-scale vector-reward environments and exact planning oracles.

The tabular problems double as ground truth for the coverage-set solver:
`value_iteration` solves a scalarized problem exactly by policy iteration,
evaluating each policy it visits once, and reports the per-objective value
of its greedy policy.

An environment object holds C copies that step together. reset(rngs)
starts C = len(rngs) episodes, copy c drawing from rngs[c] in copy order;
reset(rngs, copies) restarts only the listed copies and returns their
observations. step(actions, rngs) takes (C, action_dim) actions and
returns (C, observation_dim) observations, (C, objectives) rewards and
(C,) done flags. A single episode is the C=1 case.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ValueVector, WeightVector
from .nets import write_text_atomic

TABULAR_FORMAT_VERSION = "morlkit-momdp v1"


@dataclass(frozen=True)
class TabularMomdp:
    """Finite vector-reward decision process.

    transitions: (S, A, S) row-stochastic array.
    rewards: (S, A, I).
    initial: (S,) distribution over start states.
    terminal: (S,) bool; terminal rows are rewritten to absorbing
    self-loops with zero reward at construction.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    initial: np.ndarray
    discount: float
    terminal: np.ndarray

    def __post_init__(self) -> None:
        # C-ordered copies, frozen below; the caller's arrays stay writeable.
        p = np.array(self.transitions, dtype=float, order="C")
        r = np.array(self.rewards, dtype=float, order="C")
        d0 = np.array(self.initial, dtype=float)
        term = np.array(self.terminal, dtype=bool)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError("transitions must have shape (S, A, S)")
        ns, na, _ = p.shape
        if r.shape[:2] != (ns, na) or r.ndim != 3:
            raise ValueError("rewards must have shape (S, A, I)")
        if d0.shape != (ns,) or term.shape != (ns,):
            raise ValueError("initial/terminal must have one entry per state")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        for name, arr in (("transitions", p), ("rewards", r), ("initial", d0)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        for s in np.flatnonzero(term):
            p[s] = 0.0
            p[s, :, s] = 1.0
            r[s] = 0.0
        if np.any(p < -1e-12) or np.max(np.abs(p.sum(axis=2) - 1.0)) > 1e-9:
            raise ValueError("transition rows must be distributions")
        if abs(d0.sum() - 1.0) > 1e-9 or np.any(d0 < -1e-12):
            raise ValueError("initial state distribution must sum to 1")
        for arr in (p, r, d0, term):
            arr.flags.writeable = False
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "initial", d0)
        object.__setattr__(self, "terminal", term)

    @property
    def num_states(self) -> int:
        return int(self.transitions.shape[0])

    @property
    def num_actions(self) -> int:
        return int(self.transitions.shape[1])

    @property
    def objective_count(self) -> int:
        return int(self.rewards.shape[2])


def save_tabular(m: TabularMomdp, path) -> None:
    """Plain-text format: version, header "S A I gamma", initial
    distribution, terminal list, then for each state and action one
    transition row and one reward row; written atomically."""
    buf = io.StringIO()
    buf.write(TABULAR_FORMAT_VERSION + "\n")
    buf.write(f"{m.num_states} {m.num_actions} {m.objective_count} {m.discount!r}\n")
    buf.write(" ".join(repr(float(x)) for x in m.initial) + "\n")
    terminals = np.flatnonzero(m.terminal)
    buf.write(" ".join([str(len(terminals))] + [str(int(s)) for s in terminals]) + "\n")
    for s in range(m.num_states):
        for a in range(m.num_actions):
            buf.write(" ".join(repr(float(x)) for x in m.transitions[s, a]) + "\n")
    for s in range(m.num_states):
        for a in range(m.num_actions):
            buf.write(" ".join(repr(float(x)) for x in m.rewards[s, a]) + "\n")
    write_text_atomic(path, buf.getvalue())


class TabularFormatError(ValueError):
    """A tabular problem file that does not hold a valid problem. The
    message names the file and, for a malformed line, its line number."""


def load_tabular(path) -> TabularMomdp:
    """Read a file written by save_tabular; raise TabularFormatError on
    any line with the wrong number of values or on an invalid problem."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [
            (number, text)
            for number, text in enumerate(fh.read().splitlines(), start=1)
            if text.strip() and not text.startswith("#")
        ]
    if not lines or lines[0][1] != TABULAR_FORMAT_VERSION:
        raise TabularFormatError(f"{path}: not a recognized tabular problem file")
    if len(lines) < 4:
        raise TabularFormatError(f"{path}: missing header, initial or terminal line")

    def values(k: int, count: int | None, what: str, kind=float) -> list:
        number, text = lines[k]
        found = text.split()
        if count is not None and len(found) != count:
            raise TabularFormatError(
                f"{path}:{number}: {what} should hold {count} values, got {len(found)}"
            )
        try:
            return [kind(tok) for tok in found]
        except ValueError as exc:
            raise TabularFormatError(f"{path}:{number}: {what}: {exc}") from exc

    *sizes, gamma = values(1, 4, "header 'S A I gamma'")
    if not all(x.is_integer() and x >= 1 for x in sizes):
        raise TabularFormatError(f"{path}:{lines[1][0]}: S, A and I must be positive integers")
    ns, na, ni = (int(x) for x in sizes)
    initial = values(2, ns, "initial distribution")
    terminals = values(3, None, "terminal list", int)
    if terminals[0] != len(terminals) - 1 or not all(0 <= t < ns for t in terminals[1:]):
        raise TabularFormatError(
            f"{path}:{lines[3][0]}: terminal list should be a count and that many "
            f"state indices in 0..{ns - 1}"
        )
    if len(lines) - 4 != 2 * ns * na:
        raise TabularFormatError(
            f"{path}: expected {2 * ns * na} table rows, got {len(lines) - 4}"
        )
    cells = ns * na
    transitions = [values(4 + k, ns, "transition row") for k in range(cells)]
    rewards = [values(4 + cells + k, ni, "reward row") for k in range(cells)]
    terminal = np.zeros(ns, dtype=bool)
    terminal[terminals[1:]] = True
    try:
        return TabularMomdp(
            np.reshape(transitions, (ns, na, ns)),
            np.reshape(rewards, (ns, na, ni)),
            np.array(initial),
            gamma,
            terminal,
        )
    except ValueError as exc:
        raise TabularFormatError(f"{path}: {exc}") from exc


def random_tabular_momdp(
    rng: np.random.Generator,
    num_states: int,
    num_actions: int,
    objectives: int,
    discount: float = 0.9,
) -> TabularMomdp:
    """Dense random instance with rewards in [0, 1] and no terminal states."""
    raw = rng.random((num_states, num_actions, num_states)) + 1e-3
    transitions = raw / raw.sum(axis=2, keepdims=True)
    rewards = rng.random((num_states, num_actions, objectives))
    initial = np.full(num_states, 1.0 / num_states)
    initial[-1] = 1.0 - initial[:-1].sum()
    return TabularMomdp(
        transitions, rewards, initial, discount, np.zeros(num_states, dtype=bool)
    )


@dataclass(frozen=True)
class TreasureGrid:
    """Deterministic grid with weighted treasure cells and a per-step time
    penalty; two objectives: (treasure value, negative time)."""

    width: int
    height: int
    treasures: tuple[tuple[int, int, float], ...]
    step_penalty: float = -1.0
    horizon: int = 20
    start: tuple[int, int] = (0, 0)

    NUM_ACTIONS = 4  # up, right, down, left

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.contains(*self.start):
            raise ValueError(f"start cell {tuple(self.start)} outside grid")
        cells = set()
        for row, col, value in self.treasures:
            if not self.contains(row, col):
                raise ValueError(f"treasure at ({row}, {col}) outside grid")
            if (row, col) in cells:
                raise ValueError(f"duplicate treasure cell ({row}, {col})")
            cells.add((row, col))
        if tuple(self.start) in cells:
            raise ValueError("start cell cannot hold a treasure")
        object.__setattr__(
            self,
            "treasures",
            tuple(sorted((int(r), int(c), float(v)) for r, c, v in self.treasures)),
        )

    @property
    def objective_count(self) -> int:
        return 2

    @property
    def num_cells(self) -> int:
        return self.width * self.height

    def contains(self, row: int, col: int) -> bool:
        return 0 <= row < self.height and 0 <= col < self.width

    def cell_index(self, row: int, col: int) -> int:
        return row * self.width + col

    def treasure_value(self, row: int, col: int) -> float | None:
        for r, c, v in self.treasures:
            if (r, c) == (row, col):
                return v
        return None

    def move(self, row: int, col: int, action: int) -> tuple[int, int]:
        if not 0 <= action < self.NUM_ACTIONS:
            raise ValueError(f"action {action} outside 0..{self.NUM_ACTIONS - 1}")
        drow, dcol = ((-1, 0), (0, 1), (1, 0), (0, -1))[action]
        nrow, ncol = row + drow, col + dcol
        if not self.contains(nrow, ncol):
            return row, col
        return nrow, ncol


def treasure_grid_to_tabular(grid: TreasureGrid, discount: float) -> TabularMomdp:
    """Tabular view of the grid: treasure cells terminal, moves deterministic."""
    ns = grid.num_cells
    na = grid.NUM_ACTIONS
    transitions = np.zeros((ns, na, ns))
    rewards = np.zeros((ns, na, 2))
    terminal = np.zeros(ns, dtype=bool)
    for row in range(grid.height):
        for col in range(grid.width):
            s = grid.cell_index(row, col)
            if grid.treasure_value(row, col) is not None:
                terminal[s] = True
            for a in range(na):
                nrow, ncol = grid.move(row, col, a)
                nxt = grid.cell_index(nrow, ncol)
                transitions[s, a, nxt] = 1.0
                value = grid.treasure_value(nrow, ncol)
                rewards[s, a, 0] = value if value is not None else 0.0
                rewards[s, a, 1] = grid.step_penalty
    initial = np.zeros(ns)
    initial[grid.cell_index(*grid.start)] = 1.0
    return TabularMomdp(transitions, rewards, initial, discount, terminal)


@dataclass
class ToyLocomotion:
    """Planar point masses, one per copy, with four reward channels ordered
    (Rctrl, Rcont, Rsurv, Rfor).

    Dynamics: velocity <- 0.9 v + 0.1 a, position <- position + 0.1 v,
    with actions clamped to [-1, 1]^2 and position clamped to the arena.
    Rctrl = -|a|^2, Rcont = -(number of boundary contacts), Rsurv =
    survive_bonus on every step that does not terminate via sustained
    contact, Rfor = forward velocity. Sustained boundary contact
    (contact_limit consecutive steps) ends the episode.
    """

    horizon: int = 200
    survive_bonus: float = 1.0
    half_width: float = 5.0
    contact_limit: int = 10
    start_noise: float = 0.1

    _pos: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)), repr=False)
    _vel: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)), repr=False)
    _steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), repr=False)
    _contact_streak: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int), repr=False)

    observation_dim = 4
    action_dim = 2
    objective_count = 4

    def observation(self) -> np.ndarray:
        return np.concatenate([self._pos, self._vel], axis=1)

    def reset(self, rngs: Sequence[np.random.Generator], copies=None) -> np.ndarray:
        if copies is None:
            copies = np.arange(len(rngs))
            self._pos = np.zeros((len(rngs), 2))
            self._vel = np.zeros((len(rngs), 2))
            self._steps = np.zeros(len(rngs), dtype=int)
            self._contact_streak = np.zeros(len(rngs), dtype=int)
        for c in copies:
            self._pos[c] = self.start_noise * rngs[c].standard_normal(2)
        self._vel[copies] = 0.0
        self._steps[copies] = 0
        self._contact_streak[copies] = 0
        return self.observation()[copies]

    def step(
        self, actions: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Clamps as minimum(maximum(...)): np.clip's Python wrapper costs
        # more than the arithmetic on a few copies.
        a = np.asarray(actions, dtype=float).reshape(self._pos.shape)
        a = np.minimum(np.maximum(a, -1.0), 1.0)
        self._vel = 0.9 * self._vel + 0.1 * a
        pos = self._pos + 0.1 * self._vel
        contacts = (np.abs(pos) > self.half_width).sum(axis=1)
        self._pos = np.minimum(np.maximum(pos, -self.half_width), self.half_width)
        self._contact_streak = np.where(contacts > 0, self._contact_streak + 1, 0)
        self._steps += 1
        died = self._contact_streak >= self.contact_limit
        dones = died | (self._steps >= self.horizon)
        rewards = np.empty((len(a), 4))
        # (1, 2) @ (2, 1) per row: matmul's vector-vector case is the same
        # BLAS dot as np.dot(a[c], a[c]); a plain sum of squares rounds
        # differently where the dot fuses multiply and add.
        rewards[:, 0] = -(a[:, None, :] @ a[:, :, None])[:, 0, 0]
        rewards[:, 1] = -contacts
        rewards[:, 2] = np.where(died, 0.0, self.survive_bonus)
        rewards[:, 3] = self._vel[:, 0]
        return self.observation(), rewards, dones


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative distributions along the last axis, scaled so that each
    ends at exactly 1, as rng.choice(p=...) builds them."""
    cdf = p.cumsum(axis=-1)
    return cdf / cdf[..., -1:]


def _draw(cdf: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One index per generator: rngs[k] draws one uniform u and row k of
    cdf (or its only row) gives the count of entries at or below u. That is
    searchsorted(side="right"), the mapping rng.choice(p=...) applies to
    its one uniform, so each stream is consumed exactly as rng.choice would."""
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1)


class DiscreteToBox:
    """Continuous-action view of a tabular problem, stepped by table lookup.

    Observations are one-hot state vectors; the executed discrete action is
    the argmax component of the continuous action vector, so a Gaussian
    policy can drive it directly. An episode ends on entering a terminal
    state or, given a horizon, after that many steps. Copy c draws its
    start state and every transition from rngs[c] (see _draw), unless every
    distribution of the problem is one-hot: then the outcomes are fixed
    and nothing is drawn.
    """

    def __init__(self, m: TabularMomdp, horizon: int | None = None):
        # Tables indexed by state * num_actions + action.
        cells = m.num_states * m.num_actions
        self._rewards = m.rewards.reshape(cells, -1)
        self._terminal = m.terminal
        self._horizon = horizon
        self._onehot = np.eye(m.num_states)
        if all(np.all((p == 0.0) | (p == 1.0)) for p in (m.initial, m.transitions)):
            self._start = int(m.initial.argmax())
            self._successor = m.transitions.argmax(axis=-1).reshape(cells)
        else:
            self._start, self._successor = None, None
            self._initial_cdf = _cdf(m.initial)[None]
            self._cdf = _cdf(m.transitions).reshape(cells, -1)
        self._states = np.zeros(0, dtype=int)
        self._steps = np.zeros(0, dtype=int)
        self.observation_dim = m.num_states
        self.action_dim = m.num_actions
        self.objective_count = m.objective_count

    def reset(self, rngs: Sequence[np.random.Generator], copies=None) -> np.ndarray:
        if copies is None:
            copies = np.arange(len(rngs))
            self._states = np.zeros(len(rngs), dtype=int)
            self._steps = np.zeros(len(rngs), dtype=int)
        if self._successor is None:
            self._states[copies] = _draw(self._initial_cdf, [rngs[c] for c in copies])
        else:
            self._states[copies] = self._start
        self._steps[copies] = 0
        return self._onehot[self._states[copies]]

    def step(
        self, actions: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (len(self._states), self.action_dim)
        a = np.asarray(actions, dtype=float).reshape(shape).argmax(axis=1)
        cell = self._states * self.action_dim + a
        rewards = self._rewards.take(cell, axis=0)  # take: less overhead than [cell]
        if self._successor is None:
            self._states = _draw(self._cdf[cell], rngs)
        else:
            self._states = self._successor[cell]
        self._steps += 1
        dones = self._terminal[self._states]
        if self._horizon is not None:
            dones |= self._steps >= self._horizon
        return self._onehot.take(self._states, axis=0), rewards, dones


class SingleObjectiveView:
    """Project an environment's reward vectors onto one channel."""

    def __init__(self, base, objective_index: int):
        if not 0 <= objective_index < base.objective_count:
            raise ValueError(f"objective index {objective_index} out of range")
        self._base = base
        self._index = objective_index
        self.observation_dim = base.observation_dim
        self.action_dim = base.action_dim
        self.objective_count = 1

    def reset(self, rngs: Sequence[np.random.Generator], copies=None) -> np.ndarray:
        return self._base.reset(rngs, copies)

    def step(self, actions, rngs: Sequence[np.random.Generator]):
        obs, rewards, dones = self._base.step(actions, rngs)
        return obs, rewards[:, self._index : self._index + 1], dones


def boxed_treasure(grid: TreasureGrid) -> DiscreteToBox:
    # Stepping reads the transition and reward tables only, not the discount.
    return DiscreteToBox(treasure_grid_to_tabular(grid, discount=0.0), horizon=grid.horizon)


def _evaluate_policy_channels(m: TabularMomdp, policy: np.ndarray) -> np.ndarray:
    """Exact per-objective values of a stationary policy: (S, I)."""
    ns = m.num_states
    p_pi = m.transitions[np.arange(ns), policy]
    r_pi = m.rewards[np.arange(ns), policy]
    return np.linalg.solve(np.eye(ns) - m.discount * p_pi, r_pi)


def value_iteration(m: TabularMomdp, w: WeightVector) -> tuple[np.ndarray, ValueVector]:
    """Solve the w-scalarized problem exactly and report the greedy policy's
    per-objective value at the initial distribution.

    Uses policy iteration with exact policy evaluation, evaluating each
    policy it visits once; the last evaluation gives the start value and
    the scalarized Bellman residual, which must be at most 1e-8, or 1e-14
    of the largest |q| where that is more.
    Deterministic for fixed input (argmax ties go to the lowest action
    index; the incumbent action is kept unless beaten by more than 1e-12,
    or by 1e-14 of the largest |q| where that is more, so that round-off
    in large values cannot swap two tied actions forever).
    """
    if w.dim != m.objective_count:
        raise ValueError("weight dimension does not match objective count")
    r_w = m.rewards @ w.array
    policy = np.zeros(m.num_states, dtype=int)
    # Strict-improvement switching cannot revisit a policy; the cap is safety.
    for _ in range(10_000):
        channel_values = _evaluate_policy_channels(m, policy)
        values = channel_values @ w.array
        q = r_w + m.discount * (m.transitions @ values)
        best = q.max(axis=1)
        threshold = max(1e-12, 1e-14 * float(np.max(np.abs(best))))
        switch = q[np.arange(m.num_states), policy] < best - threshold
        if not switch.any():
            break
        policy = np.where(switch, q.argmax(axis=1), policy)
    else:
        raise RuntimeError("policy iteration failed to converge")
    residual = float(np.max(np.abs(best - values)))
    tolerance = max(1e-8, 1e-14 * float(np.max(np.abs(best))))
    if residual > tolerance:
        raise RuntimeError(f"Bellman residual {residual:.3e} exceeds {tolerance:.3e}")
    start_value = m.initial @ channel_values
    return policy, ValueVector(tuple(start_value))
