"""Natural-language trade-off explanations.

A quality-attribute vocabulary maps each objective to a name, an
optimization direction, and a phrase; alternative value vectors are mined
from a precomputed value library under per-attribute improvement targets;
template renderers turn the current values and each alternative into
deterministic prose.

All comparisons happen in utility orientation: minimize-direction
objectives are negated internally so "at least as good" always means
"numerically at least as large".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import ValueVector

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

ANCHOR_ATOL = 1e-9


@dataclass(frozen=True)
class QaObjective:
    """Vocabulary entry for one objective."""

    name: str
    qa_type: str
    direction: str
    phrase: str
    precision: int = 3

    def __post_init__(self) -> None:
        if self.direction not in (MAXIMIZE, MINIMIZE):
            raise ValueError(f"direction must be {MAXIMIZE!r} or {MINIMIZE!r}")
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        if not self.name:
            raise ValueError("name must be nonempty")


@dataclass(frozen=True)
class QaSpec:
    """Per-objective vocabulary; one entry per reward channel, unique names."""

    objectives: tuple[QaObjective, ...]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("QaSpec needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        object.__setattr__(self, "objectives", tuple(self.objectives))

    @property
    def dim(self) -> int:
        return len(self.objectives)

    def orientation(self) -> np.ndarray:
        """+1 for maximize channels, -1 for minimize channels."""
        return np.array(
            [1.0 if o.direction == MAXIMIZE else -1.0 for o in self.objectives]
        )


@dataclass(frozen=True)
class ExplainConfig:
    """Search settings per objective, in utility orientation.

    increments: step size for tightening each attribute's target (> 0, finite).
    max_values: cap on the utility-oriented target sweep (finite).
    max_alternatives: cap on alternatives anchored at each attribute (>= 1).
    """

    increments: tuple[float, ...]
    max_values: tuple[float, ...]
    max_alternatives: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.increments)
        if n < 1 or len(self.max_values) != n or len(self.max_alternatives) != n:
            raise ValueError("per-objective settings must have equal nonzero length")
        if not all(0.0 < dv < math.inf for dv in self.increments):
            raise ValueError("increments must be positive and finite")
        if not all(math.isfinite(m) for m in self.max_values):
            raise ValueError("max_values must be finite")
        if any(m < 1 for m in self.max_alternatives):
            raise ValueError("max_alternatives entries must be >= 1")


@dataclass(frozen=True)
class Alternative:
    """One alternative value vector anchored at an improved attribute.

    target is utility-oriented; gains and losses map objective index to the
    utility-oriented delta against the current values (gains positive,
    losses negative).
    """

    anchor_index: int
    target: float
    achieved: ValueVector
    gains: Mapping[int, float]
    losses: Mapping[int, float]

    def __post_init__(self) -> None:
        gains = dict(self.gains)
        losses = dict(self.losses)
        if any(delta <= 0.0 for delta in gains.values()):
            raise ValueError("gains must be strictly positive utility deltas")
        if any(delta >= 0.0 for delta in losses.values()):
            raise ValueError("losses must be strictly negative utility deltas")
        if self.anchor_index not in gains:
            raise ValueError("anchor objective must appear among the gains")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "losses", losses)


def _oriented(qa: QaSpec, v: ValueVector) -> np.ndarray:
    if v.dim != qa.dim:
        raise ValueError(f"value has {v.dim} entries, vocabulary has {qa.dim}")
    return qa.orientation() * v.array


def constrained_best(
    pool: Sequence[ValueVector], index: int, target: float, qa: QaSpec
) -> ValueVector | None:
    """Library member meeting the utility target at one attribute while
    maximizing the plain sum of the remaining oriented attributes; None when
    nothing qualifies. Ties go to the earliest pool member."""
    if not pool:
        raise ValueError("constrained_best needs a nonempty pool")
    best: ValueVector | None = None
    best_score = -math.inf
    for member in pool:
        oriented = _oriented(qa, member)
        if oriented[index] < target - ANCHOR_ATOL:
            continue
        score = float(oriented.sum() - oriented[index])
        if score > best_score + 1e-12:
            best = member
            best_score = score
    return best


def generate_alternatives(
    pool: Sequence[ValueVector],
    current: ValueVector,
    qa: QaSpec,
    cfg: ExplainConfig,
) -> list[Alternative]:
    """Sweep improvement targets attribute by attribute over the library.

    For each still-open attribute, raise the target by its increment while
    it stays under the cap and the per-attribute alternative budget holds,
    and stop at the first target no library member meets; each constrained
    selection that succeeds is recorded, and any other attribute the
    selection already improves by a full increment is dropped from further
    exploration. Alternatives are deduplicated by achieved
    vector and never include the current vector itself.
    """
    if qa.dim != current.dim or len(cfg.increments) != qa.dim:
        raise ValueError("vocabulary, config, and value dimensions must agree")
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
                # The feasible set only shrinks as the target rises.
                break
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


def format_value(value: float, precision: int) -> str:
    """Fixed-point rendering with trailing zeros trimmed; -0 collapses to 0."""
    text = f"{value:.{precision}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text == "-0":
        text = "0"
    return text


def _join_clauses(clauses: Sequence[str]) -> str:
    if len(clauses) == 1:
        return clauses[0]
    if len(clauses) == 2:
        return f"{clauses[0]} and {clauses[1]}"
    return ", ".join(clauses[:-1]) + f", and {clauses[-1]}"


def _improve_verb(direction: str) -> str:
    return "increase" if direction == MAXIMIZE else "decrease"


def _worsen_verb(direction: str) -> str:
    return "decrease" if direction == MAXIMIZE else "increase"


def render_policy_statement(qa: QaSpec, v: ValueVector) -> str:
    """Mission sentence from the objective phrases followed by one value
    clause per objective."""
    if v.dim != qa.dim:
        raise ValueError("value and vocabulary dimensions must agree")
    maximized = [o.phrase for o in qa.objectives if o.direction == MAXIMIZE]
    minimized = [o.phrase for o in qa.objectives if o.direction == MINIMIZE]
    if maximized and minimized:
        mission = (
            f"I aim to maximize {_join_clauses(maximized)} "
            f"while minimizing {_join_clauses(minimized)}."
        )
    elif maximized:
        mission = f"I aim to maximize {_join_clauses(maximized)}."
    else:
        mission = f"I aim to minimize {_join_clauses(minimized)}."
    parts = []
    for k, obj in enumerate(qa.objectives):
        value_text = format_value(v[k], obj.precision)
        lead = "The " if k == 0 else ""
        parts.append(f"{lead}{obj.name} is {value_text}")
    return f"{mission} {_join_clauses(parts)}."


def render_contrastive(qa: QaSpec, alt: Alternative, current: ValueVector) -> str:
    """Why-not prose for one alternative: what it would improve, what it
    would worsen, and why the trade was declined."""
    if current.dim != qa.dim or alt.achieved.dim != qa.dim:
        raise ValueError("value and vocabulary dimensions must agree")
    if not alt.gains:
        raise ValueError("alternative has no gains to justify")
    gain_idx = sorted(alt.gains)
    loss_idx = sorted(alt.losses)
    gain_clauses = [
        f"{_improve_verb(qa.objectives[j].direction)} the {qa.objectives[j].name} "
        f"to {format_value(alt.achieved[j], qa.objectives[j].precision)}"
        for j in gain_idx
    ]
    text = f"I could {_join_clauses(gain_clauses)}, by carrying out an alternative policy instead."
    if loss_idx:
        loss_clauses = [
            f"{_worsen_verb(qa.objectives[j].direction)} the {qa.objectives[j].name} "
            f"by {format_value(abs(alt.achieved[j] - current[j]), qa.objectives[j].precision)}"
            for j in loss_idx
        ]
        text += f" However, this would {_join_clauses(loss_clauses)}."
        gain_nouns = [
            f"the {_improve_verb(qa.objectives[j].direction)} in the {qa.objectives[j].name}"
            for j in gain_idx
        ]
        loss_nouns = [
            f"the {_worsen_verb(qa.objectives[j].direction)} of the {qa.objectives[j].name}"
            for j in loss_idx
        ]
        text += (
            f" I decided not to do that because {_join_clauses(gain_nouns)}"
            f" is not worth {_join_clauses(loss_nouns)}."
        )
    return text
