"""Fixed-seed AOLS and LP outputs pinned across commits.

The digest in tests/golden/ covers, for fixed random tabular problems with
2, 3 and 4 objectives, every AOLS iteration (queried weight, insert flag,
remaining relative gap) and the coverage-set vectors in insertion order;
and, for seeded random linear programs, the solution and objective of
`solve_lp` (or the exception it raised) and the verdict of
`is_convex_undominated`. AOLS picks its next corner by comparing gaps
exactly, so a change in the last bit of a corner weight or an LP value can
reorder its queries;
this test catches such a change where the tolerance-based tests would not.
A change that is meant to alter these outputs updates the file and says why.

The digest depends on floating-point results of numpy's linear algebra, so
it is exact only for a given numpy build and CPU family (x86-64, OpenBLAS).
"""

import hashlib
from pathlib import Path

import numpy as np

from morlkit.ccs import aols, is_convex_undominated
from morlkit.core import ValueVector
from morlkit.envs import random_tabular_momdp, value_iteration
from morlkit.lp import LpError, solve_lp

GOLDEN = Path(__file__).parent / "golden" / "aols_lp.sha256"

# (seed, states, actions, objectives) of the AOLS instances.
AOLS_CASES = (
    (0, 4, 3, 2),
    (1, 5, 3, 2),
    (2, 4, 3, 3),
    (3, 5, 3, 3),
    (4, 4, 2, 4),
    (5, 5, 3, 4),
)
AOLS_EPSILON = 1e-6
LP_CASES = 500


def aols_lines(h) -> None:
    for seed, states, actions, objectives in AOLS_CASES:
        m = random_tabular_momdp(
            np.random.default_rng(seed), states, actions, objectives, discount=0.85
        )
        result = aols(lambda w, m=m: value_iteration(m, w)[1], objectives, AOLS_EPSILON)
        h.update(f"aols {seed} {len(result.history)}\n".encode())
        for it in result.history:
            h.update(
                f"{it.index} {it.weight.weights!r} {it.inserted} {it.remaining_delta_r!r}\n".encode()
            )
        for v in result.ccs.vectors:
            h.update((repr(v.values) + "\n").encode())
        h.update(f"{result.delta_max!r} {result.hit_iteration_cap}\n".encode())


def random_lp(rng: np.random.Generator):
    """Inequality rows, sometimes a simplex equality row; half of the
    instances use small integers, which give ties and degenerate pivots."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 8))
    if rng.random() < 0.5:
        c, a, b = rng.uniform(-2, 2, n), rng.uniform(-2, 2, (m, n)), rng.uniform(-1, 3, m)
    else:
        c = rng.integers(-2, 3, n).astype(float)
        a = rng.integers(-2, 3, (m, n)).astype(float)
        b = rng.integers(-1, 4, m).astype(float)
    if rng.random() < 0.3:
        return c, a, b, np.ones((1, n)), np.ones(1)
    return c, a, b, None, None


def lp_lines(h) -> None:
    rng = np.random.default_rng(2024)
    for k in range(LP_CASES):
        c, a, b, a_eq, b_eq = random_lp(rng)
        try:
            x, value = solve_lp(c, a_ub=a, b_ub=b, a_eq=a_eq, b_eq=b_eq)
            h.update(f"lp {k} {value!r}\n".encode())
            h.update(x.tobytes())
        except LpError as exc:
            h.update(f"lp {k} {type(exc).__name__}\n".encode())
        dim = int(rng.integers(2, 5))
        pool = rng.uniform(0, 3, (int(rng.integers(1, 7)), dim))
        if rng.random() < 0.5:
            pool = np.round(pool)
        s = [ValueVector(tuple(row)) for row in pool[1:]]
        margin = float(rng.choice([0.0, 0.1]))
        v = ValueVector(tuple(pool[0] - margin))  # a margin m is tested on v - m*1
        h.update(f"dom {k} {is_convex_undominated(v, s)}\n".encode())


def digest() -> str:
    h = hashlib.sha256()
    aols_lines(h)
    lp_lines(h)
    return h.hexdigest()


def test_aols_and_lp_outputs_match_golden_digest():
    assert digest() == GOLDEN.read_text().split()[0]
