"""Dense two-phase simplex solver for small linear programs.

Solves  maximize c.x  subject to  A_ub.x <= b_ub,  A_eq.x == b_eq,  x >= 0.

Meant for the tiny instances produced by the coverage-set machinery
(a few dozen constraints, under ~20 variables). Bland's rule keeps the
pivoting cycle-free; all comparisons use an absolute tolerance. A pivot is
one rank-1 update of the rows whose pivot-column entry is nonzero; the
leaving-row ratio test runs over Python floats, one row at a time, so that
its ties break exactly as the rule states.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


class LpError(Exception):
    pass


class LpUnbounded(LpError):
    """Objective can be increased without bound."""


class LpInfeasible(LpError):
    """No point satisfies the constraints."""


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero entry are left alone, so their signed zeros stay.
    rows = np.flatnonzero(np.abs(factors) > 0.0)
    tableau[rows] -= factors[rows, None] * tableau[row]


def _bland_entering(obj: np.ndarray, ncols: int) -> int | None:
    candidates = np.flatnonzero(obj[:ncols] > TOL)
    return int(candidates[0]) if len(candidates) else None


def _bland_leaving(tableau: np.ndarray, basis: list[int], col: int, nrows: int) -> int | None:
    best_ratio = None
    best_row = None
    coefs = tableau[:nrows, col].tolist()
    rhs = tableau[:nrows, -1].tolist()
    for r, coef in enumerate(coefs):
        if coef > TOL:
            ratio = rhs[r] / coef
            if (
                best_ratio is None
                or ratio < best_ratio - TOL
                or (abs(ratio - best_ratio) <= TOL and basis[r] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = r
    return best_row


def _run_simplex(tableau: np.ndarray, basis: list[int], ncols: int, nrows: int) -> None:
    while True:
        col = _bland_entering(tableau[-1], ncols)
        if col is None:
            return
        row = _bland_leaving(tableau, basis, col, nrows)
        if row is None:
            raise LpUnbounded(f"unbounded in direction of variable {col}")
        basis[row] = col
        _pivot(tableau, row, col)


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
) -> tuple[np.ndarray, float]:
    """Return (x, objective) maximizing c.x over the given constraints."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if a_ub.shape[0] != b_ub.shape[0] or a_eq.shape[0] != b_eq.shape[0]:
        raise ValueError("constraint matrix / rhs shape mismatch")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a_ub)) and np.all(np.isfinite(b_ub))
            and np.all(np.isfinite(a_eq)) and np.all(np.isfinite(b_eq))):
        raise ValueError("LP data must be finite")

    m_ub = a_ub.shape[0]
    m_eq = a_eq.shape[0]
    m = m_ub + m_eq

    # Equality system: [A_ub | I_slack] x = b_ub rows first, then A_eq rows.
    rows = np.zeros((m, n + m_ub))
    rhs = np.zeros(m)
    rows[:m_ub, :n] = a_ub
    rows[:m_ub, n : n + m_ub] = np.eye(m_ub)
    rhs[:m_ub] = b_ub
    rows[m_ub:, :n] = a_eq
    rhs[m_ub:] = b_eq

    # Normalize to rhs >= 0 so artificials can start basic.
    for r in range(m):
        if rhs[r] < 0.0:
            rows[r] *= -1.0
            rhs[r] *= -1.0

    # A slack variable can seed the basis only for an unflipped <= row.
    needs_artificial = []
    basis: list[int] = []
    for r in range(m):
        if r < m_ub and rows[r, n + r] == 1.0:
            basis.append(n + r)
        else:
            needs_artificial.append(r)
            basis.append(-1)

    n_art = len(needs_artificial)
    total = n + m_ub + n_art
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, : n + m_ub] = rows
    tableau[:m, -1] = rhs
    for k, r in enumerate(needs_artificial):
        tableau[r, n + m_ub + k] = 1.0
        basis[r] = n + m_ub + k

    if n_art > 0:
        # Phase 1: maximize -(sum of artificials), expressed over the basis.
        for r in needs_artificial:
            tableau[-1, : total + 1] += tableau[r, : total + 1]
        tableau[-1, n + m_ub : total] = 0.0
        _run_simplex(tableau, basis, total, m)
        if tableau[-1, -1] > 1e-7:
            raise LpInfeasible(f"phase-1 residual {tableau[-1, -1]:.3e}")
        # Drive leftover artificials out of the basis where possible.
        for r in range(m):
            if basis[r] >= n + m_ub:
                for j in range(n + m_ub):
                    if abs(tableau[r, j]) > TOL:
                        basis[r] = j
                        _pivot(tableau, r, j)
                        break

    # Phase 2 objective row: c minus contributions of basic variables.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for r in range(m):
        if basis[r] < n and abs(tableau[-1, basis[r]]) > 0.0:
            tableau[-1] -= tableau[-1, basis[r]] * tableau[r]
    # Entering columns are capped at n + m_ub, so artificials never re-enter.
    _run_simplex(tableau, basis, n + m_ub, m)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r, -1]
    return x, float(np.dot(c, x))
