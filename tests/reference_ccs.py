"""Exact coverage-set references for small tabular problems.

`exact_ccs` enumerates all A^S deterministic stationary policies, solves
each exactly, and keeps the Pareto-optimal values that beat every other by
more than 1e-9 at some simplex weight, each decided by one
`scipy.optimize.linprog` program (`best_slack`), independent of the
package's own dominance test. `finite_horizon_values` solves a scalarized
problem over a fixed number of steps by backward induction; the treasure
grid tests use it as an oracle at the grid's horizon.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.optimize import linprog

from morlkit.core import ValueVector, WeightVector


def pareto_front(vectors: np.ndarray) -> np.ndarray:
    """The distinct rows that no other row dominates, in their input order.

    Rows are scanned in descending order of their sum, ties broken by
    descending lexicographic order. A row that dominates another has a sum
    at least as large (rounding is monotone) and, on equal sums, is the
    larger lexicographically, so it is scanned first: each row need only be
    compared with the front kept so far.
    """
    vectors = np.unique(vectors, axis=0)
    order = np.lexsort((*(-vectors.T[::-1]), -vectors.sum(axis=1)))
    kept: list[int] = []
    for k in order:
        # Rows are distinct, so a kept row >= this one everywhere dominates it.
        if not np.any(np.all(vectors[kept] >= vectors[k], axis=1)):
            kept.append(k)
    return vectors[sorted(kept)]


def best_slack(v: np.ndarray, others: np.ndarray) -> float:
    """Largest t such that some simplex weight w has w.v >= w.v' + t for
    every row v' of others, by HiGHS."""
    dim = len(v)
    # Variables (w, t): maximize t subject to w.(v' - v) + t <= 0, sum(w) = 1.
    res = linprog(
        c=np.append(np.zeros(dim), -1.0),
        A_ub=np.hstack([others - v, np.ones((len(others), 1))]),
        b_ub=np.zeros(len(others)),
        A_eq=np.append(np.ones(dim), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * dim + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


def exact_ccs(m) -> list[ValueVector]:
    """Coverage set of a tabular problem from all A^S deterministic
    stationary policies, each evaluated exactly by a linear solve.

    Only Pareto-optimal vectors can be strictly best at a simplex weight,
    and the best of the Pareto set is the best of the whole set.
    """
    states = np.arange(m.num_states)
    policies = np.array(list(product(range(m.num_actions), repeat=m.num_states)))
    systems = np.eye(m.num_states) - m.discount * m.transitions[states, policies]
    values = np.linalg.solve(systems, m.rewards[states, policies])
    front = pareto_front(np.einsum("s,ksi->ki", m.initial, values))
    return [
        ValueVector(tuple(v))
        for k, v in enumerate(front)
        if len(front) == 1 or best_slack(v, np.delete(front, k, axis=0)) > 1e-9
    ]


def finite_horizon_values(m, w: WeightVector, horizon: int) -> ValueVector:
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
