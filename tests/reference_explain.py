"""The full target sweep of `generate_alternatives`, kept as a test reference.

`morlkit.explain.generate_alternatives` stops raising an attribute's target
at the first target no library member meets. This module keeps the earlier
sweep, which raises the target all the way to the cap and asks
`constrained_best` at every step, so that a test can check that stopping
early changes no output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from morlkit.core import ValueVector
from morlkit.explain import (
    ANCHOR_ATOL,
    Alternative,
    ExplainConfig,
    QaSpec,
    _oriented,
    constrained_best,
)


def full_sweep_alternatives(
    pool: Sequence[ValueVector],
    current: ValueVector,
    qa: QaSpec,
    cfg: ExplainConfig,
) -> list[Alternative]:
    """Alternatives from a sweep that skips infeasible targets and goes on."""
    current_u = _oriented(qa, current)
    open_attrs = list(range(qa.dim))
    found: list[Alternative] = []
    seen: list[ValueVector] = []
    while open_attrs:
        i = open_attrs.pop(0)
        count = 0
        target = float(current_u[i])
        while target <= cfg.max_values[i] - cfg.increments[i] and count < cfg.max_alternatives[i]:
            target += cfg.increments[i]
            choice = constrained_best(pool, i, target, qa)
            if choice is None:
                continue
            count += 1
            choice_u = _oriented(qa, choice)
            deltas = choice_u - current_u
            for j in list(open_attrs):
                if j != i and deltas[j] >= cfg.increments[j]:
                    open_attrs.remove(j)
            gains = {j: float(d) for j, d in enumerate(deltas) if d > ANCHOR_ATOL}
            losses = {j: float(d) for j, d in enumerate(deltas) if d < -ANCHOR_ATOL}
            if i not in gains:
                continue
            if any(
                float(np.max(np.abs(choice.array - s.array))) <= ANCHOR_ATOL
                for s in seen
            ):
                continue
            seen.append(choice)
            found.append(
                Alternative(
                    anchor_index=i,
                    target=target,
                    achieved=choice,
                    gains=gains,
                    losses=losses,
                )
            )
    return found
