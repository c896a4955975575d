"""Exact coverage-set reference for small tabular problems.

Independent of morlkit's solvers: every deterministic stationary policy
(A^S of them) is evaluated with a dense linear solve, and the vectors that
are strictly best for some simplex weight are kept, each decided by one
``scipy.optimize.linprog`` program. Brute-force grid enumeration
(``morlkit.envs.enumerate_ccs``) is not used, because a weight grid can
step over the narrow optimality regions of some vectors.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

MARGIN = 1e-9
MATCH_ATOL = 1e-6


def policy_values(transitions, rewards, initial, discount) -> np.ndarray:
    """Start-distribution value vector of every deterministic policy."""
    ns, na, _ = transitions.shape
    states = np.arange(ns)
    eye = np.eye(ns)
    out = []
    for policy in itertools.product(range(na), repeat=ns):
        pol = np.array(policy)
        values = np.linalg.solve(eye - discount * transitions[states, pol], rewards[states, pol])
        out.append(initial @ values)
    return np.array(out)


def _pareto(vectors: np.ndarray) -> np.ndarray:
    keep = []
    for k, v in enumerate(vectors):
        dominated = np.any(np.all(vectors >= v, axis=1) & np.any(vectors > v, axis=1))
        duplicate = any(np.max(np.abs(vectors[j] - v)) <= MARGIN for j in keep)
        if not dominated and not duplicate:
            keep.append(k)
    return vectors[keep]


def convex_coverage_set(vectors: np.ndarray) -> np.ndarray:
    """Vectors that beat every other by more than MARGIN at some weight.

    Only Pareto-optimal vectors can be, and for nonnegative weights the best
    of the Pareto set is the best of the whole set.
    """
    front = _pareto(vectors)
    dim = front.shape[1]
    keep = []
    for k, v in enumerate(front):
        others = np.delete(front, k, axis=0)
        if others.shape[0] == 0:
            keep.append(k)
            continue
        # Variables (w, t): maximize t subject to w.(v' - v) + t <= 0, sum(w) = 1.
        a_ub = np.hstack([others - v, np.ones((others.shape[0], 1))])
        res = linprog(
            c=np.concatenate([np.zeros(dim), [-1.0]]),
            A_ub=a_ub,
            b_ub=np.zeros(others.shape[0]),
            A_eq=np.concatenate([np.ones(dim), [0.0]])[None, :],
            b_eq=[1.0],
            bounds=[(0.0, None)] * dim + [(None, None)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"reference LP failed: {res.message}")
        if -res.fun > MARGIN:
            keep.append(k)
    return front[keep]


def exact_ccs(m) -> np.ndarray:
    return convex_coverage_set(policy_values(m.transitions, m.rewards, m.initial, m.discount))


def same_set(found, expected: np.ndarray) -> bool:
    """Equal sizes and a one-to-one match within MATCH_ATOL."""
    found = np.asarray(found, dtype=float).reshape(-1, expected.shape[1])
    if found.shape[0] != expected.shape[0]:
        return False
    unmatched = list(range(expected.shape[0]))
    for v in found:
        hit = next((j for j in unmatched if np.max(np.abs(expected[j] - v)) <= MATCH_ATOL), None)
        if hit is None:
            return False
        unmatched.remove(hit)
    return True
