"""Desk-scale vector-reward environments and exact planning oracles.

The tabular problems double as ground truth for the coverage-set solver:
`value_iteration` solves a scalarized problem exactly and reports the
per-objective value of its greedy policy, and `enumerate_ccs` sweeps a
dense weight grid to build a brute-force reference coverage set.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .ccs import is_convex_undominated
from .core import ValueVector, WeightVector
from .nets import write_text_atomic

SIZE_GUARD_STATE_ACTIONS = 10_000
SIZE_GUARD_OBJECTIVES = 3

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
        p = np.asarray(self.transitions, dtype=float)
        r = np.asarray(self.rewards, dtype=float)
        d0 = np.asarray(self.initial, dtype=float)
        term = np.asarray(self.terminal, dtype=bool)
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
        p = p.copy()
        r = r.copy()
        for s in np.flatnonzero(term):
            p[s] = 0.0
            p[s, :, s] = 1.0
            r[s] = 0.0
        if np.any(p < -1e-12) or np.max(np.abs(p.sum(axis=2) - 1.0)) > 1e-9:
            raise ValueError("transition rows must be distributions")
        if abs(d0.sum() - 1.0) > 1e-9 or np.any(d0 < -1e-12):
            raise ValueError("initial state distribution must sum to 1")
        for arr in (p, r, d0):
            arr.flags.writeable = False
        term = term.copy()
        term.flags.writeable = False
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

    def reset(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.num_states, p=self.initial))

    def step(
        self, state: int, action: int, rng: np.random.Generator
    ) -> tuple[int, np.ndarray, bool]:
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} outside 0..{self.num_actions - 1}")
        nxt = int(rng.choice(self.num_states, p=self.transitions[state, action]))
        reward = self.rewards[state, action].copy()
        return nxt, reward, bool(self.terminal[nxt])


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
        cells = set()
        for row, col, value in self.treasures:
            if not (0 <= row < self.height and 0 <= col < self.width):
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
        if not (0 <= nrow < self.height and 0 <= ncol < self.width):
            return row, col
        return nrow, ncol


class TreasureGridSession:
    """Stateful episode runner over a TreasureGrid."""

    def __init__(self, grid: TreasureGrid):
        self.grid = grid
        self._pos = grid.start
        self._steps = 0

    def reset(self, rng: np.random.Generator) -> tuple[int, int]:
        self._pos = self.grid.start
        self._steps = 0
        return self._pos

    def step(self, action: int, rng: np.random.Generator) -> tuple[tuple[int, int], np.ndarray, bool]:
        row, col = self.grid.move(*self._pos, int(action))
        self._pos = (row, col)
        self._steps += 1
        value = self.grid.treasure_value(row, col)
        reward = np.array([value if value is not None else 0.0, self.grid.step_penalty])
        done = value is not None or self._steps >= self.grid.horizon
        return self._pos, reward, done


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
    """Planar point mass with four reward channels ordered
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

    _pos: np.ndarray = field(default_factory=lambda: np.zeros(2), repr=False)
    _vel: np.ndarray = field(default_factory=lambda: np.zeros(2), repr=False)
    _steps: int = field(default=0, repr=False)
    _contact_streak: int = field(default=0, repr=False)

    observation_dim = 4
    action_dim = 2
    objective_count = 4

    def observation(self) -> np.ndarray:
        return np.concatenate([self._pos, self._vel])

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._pos = self.start_noise * rng.standard_normal(2)
        self._vel = np.zeros(2)
        self._steps = 0
        self._contact_streak = 0
        return self.observation()

    def step(
        self, action: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        a = np.clip(np.asarray(action, dtype=float).reshape(2), -1.0, 1.0)
        self._vel = 0.9 * self._vel + 0.1 * a
        self._pos = self._pos + 0.1 * self._vel
        contacts = int(np.sum(np.abs(self._pos) > self.half_width))
        self._pos = np.clip(self._pos, -self.half_width, self.half_width)
        self._contact_streak = self._contact_streak + 1 if contacts > 0 else 0
        self._steps += 1
        died = self._contact_streak >= self.contact_limit
        done = died or self._steps >= self.horizon
        reward = np.array(
            [
                -float(np.dot(a, a)),
                -float(contacts),
                0.0 if died else self.survive_bonus,
                float(self._vel[0]),
            ]
        )
        return self.observation(), reward, done


class TabularSession:
    """Stateful episode runner over a TabularMomdp."""

    def __init__(self, m: TabularMomdp):
        self.m = m
        self._state = 0

    def reset(self, rng: np.random.Generator) -> int:
        self._state = self.m.reset(rng)
        return self._state

    def step(self, action: int, rng: np.random.Generator) -> tuple[int, np.ndarray, bool]:
        nxt, reward, done = self.m.step(self._state, int(action), rng)
        self._state = nxt
        return nxt, reward, done


class DiscreteToBox:
    """Continuous-action view of a discrete environment.

    Observations become one-hot vectors; the executed discrete action is the
    argmax component of the continuous action vector, so a Gaussian policy
    can drive it directly.
    """

    def __init__(self, session, num_states: int, num_actions: int, objective_count: int, to_index=None):
        self._session = session
        self._to_index = to_index if to_index is not None else int
        self.observation_dim = int(num_states)
        self.action_dim = int(num_actions)
        self.objective_count = int(objective_count)

    def _encode(self, state) -> np.ndarray:
        onehot = np.zeros(self.observation_dim)
        onehot[self._to_index(state)] = 1.0
        return onehot

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return self._encode(self._session.reset(rng))

    def step(self, action, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, bool]:
        a = int(np.argmax(np.asarray(action, dtype=float).reshape(self.action_dim)))
        state, reward, done = self._session.step(a, rng)
        return self._encode(state), reward, done


class SingleObjectiveView:
    """Project an environment's reward vector onto one channel."""

    def __init__(self, base, objective_index: int):
        if not 0 <= objective_index < base.objective_count:
            raise ValueError(f"objective index {objective_index} out of range")
        self._base = base
        self._index = objective_index
        self.observation_dim = base.observation_dim
        self.action_dim = base.action_dim
        self.objective_count = 1

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return self._base.reset(rng)

    def step(self, action, rng: np.random.Generator):
        obs, reward, done = self._base.step(action, rng)
        return obs, np.asarray(reward, dtype=float)[self._index : self._index + 1], done


def boxed_tabular(m: TabularMomdp) -> DiscreteToBox:
    return DiscreteToBox(TabularSession(m), m.num_states, m.num_actions, m.objective_count)


def boxed_treasure(grid: TreasureGrid) -> DiscreteToBox:
    return DiscreteToBox(
        TreasureGridSession(grid),
        grid.num_cells,
        TreasureGrid.NUM_ACTIONS,
        grid.objective_count,
        to_index=lambda pos: grid.cell_index(*pos),
    )


def _greedy_improve(q: np.ndarray, policy: np.ndarray) -> np.ndarray:
    best = q.max(axis=1)
    improved = policy.copy()
    for s in range(q.shape[0]):
        if q[s, policy[s]] < best[s] - 1e-12:
            improved[s] = int(np.argmax(q[s]))
    return improved


def _evaluate_policy_channels(m: TabularMomdp, policy: np.ndarray) -> np.ndarray:
    """Exact per-objective values of a stationary policy: (S, I)."""
    ns = m.num_states
    p_pi = m.transitions[np.arange(ns), policy]
    r_pi = m.rewards[np.arange(ns), policy]
    return np.linalg.solve(np.eye(ns) - m.discount * p_pi, r_pi)


def value_iteration(
    m: TabularMomdp, w: WeightVector, tol: float = 1e-8
) -> tuple[np.ndarray, ValueVector]:
    """Solve the w-scalarized problem exactly and report the greedy policy's
    per-objective value at the initial distribution.

    Uses policy iteration with exact policy evaluation, then verifies the
    scalarized Bellman residual against tol. Deterministic for fixed input
    (argmax ties go to the lowest action index; the incumbent action is
    kept unless strictly improved upon).
    """
    if w.dim != m.objective_count:
        raise ValueError("weight dimension does not match objective count")
    r_w = m.rewards @ w.array
    policy = np.zeros(m.num_states, dtype=int)
    # Strict-improvement switching cannot revisit a policy; the cap is safety.
    for _ in range(10_000):
        values = _evaluate_policy_channels(m, policy) @ w.array
        q = r_w + m.discount * (m.transitions @ values)
        improved = _greedy_improve(q, policy)
        if np.array_equal(improved, policy):
            break
        policy = improved
    else:
        raise RuntimeError("policy iteration failed to converge")
    channel_values = _evaluate_policy_channels(m, policy)
    v_w = channel_values @ w.array
    residual = float(np.max(np.abs((r_w + m.discount * (m.transitions @ v_w)).max(axis=1) - v_w)))
    if residual > tol:
        raise RuntimeError(f"Bellman residual {residual:.3e} exceeds tol {tol:.3e}")
    start_value = m.initial @ channel_values
    return policy, ValueVector(tuple(start_value))


def finite_horizon_values(
    m: TabularMomdp, w: WeightVector, horizon: int
) -> ValueVector:
    """Per-objective value of the w-optimal nonstationary policy over a
    fixed number of steps (exact backward induction)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if w.dim != m.objective_count:
        raise ValueError("weight dimension does not match objective count")
    r_w = m.rewards @ w.array
    v_scalar = np.zeros(m.num_states)
    v_channels = np.zeros((m.num_states, m.objective_count))
    for _ in range(horizon):
        q = r_w + m.discount * (m.transitions @ v_scalar)
        greedy = np.argmax(q, axis=1)
        idx = np.arange(m.num_states)
        v_scalar = q[idx, greedy]
        v_channels = m.rewards[idx, greedy] + m.discount * np.einsum(
            "sn,ni->si", m.transitions[idx, greedy], v_channels
        )
    return ValueVector(tuple(m.initial @ v_channels))


def _simplex_grid(dim: int, resolution: int) -> list[WeightVector]:
    points = []
    for combo in combinations_with_replacement(range(dim), resolution):
        counts = np.zeros(dim)
        for k in combo:
            counts[k] += 1
        points.append(WeightVector(tuple(counts / resolution)))
    return points


def enumerate_ccs(
    problem: TabularMomdp | TreasureGrid,
    resolution: int | None = None,
    discount: float = 0.95,
) -> list[ValueVector]:
    """Brute-force coverage set: sweep a dense simplex grid of weights,
    solve each scalarization exactly, keep the unique undominated vectors.

    TreasureGrid inputs are converted to tabular form and solved at the
    grid's horizon.
    """
    if isinstance(problem, TreasureGrid):
        m = treasure_grid_to_tabular(problem, discount)
        horizon = problem.horizon
    else:
        m = problem
        horizon = None
    if m.num_states * m.num_actions > SIZE_GUARD_STATE_ACTIONS:
        raise ValueError("problem too large for brute-force enumeration")
    if m.objective_count > SIZE_GUARD_OBJECTIVES:
        raise ValueError("too many objectives for brute-force enumeration")
    if resolution is None:
        resolution = 1000 if m.objective_count == 2 else 50
    vectors: list[ValueVector] = []
    for w in _simplex_grid(m.objective_count, resolution):
        if horizon is None:
            _, value = value_iteration(m, w)
        else:
            value = finite_horizon_values(m, w, horizon)
        if all(
            float(np.max(np.abs(value.array - v.array))) > 1e-6 for v in vectors
        ):
            vectors.append(value)
    return [
        v
        for k, v in enumerate(vectors)
        if is_convex_undominated(v, vectors[:k] + vectors[k + 1 :])
    ]
