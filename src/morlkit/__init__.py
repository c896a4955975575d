"""Multi-objective RL toolkit: coverage-set solving over value vectors,
a one-actor/multi-critic clipped policy-gradient engine that trains each
objective on its own relationship-matrix row (the identity) and keeps a
running coverage set of its critic vectors, and contrastive trade-off
explanations. `train` at objective_count=1 is the single-objective
baseline."""

from .core import (
    Iorm,
    TrajectoryBatch,
    ValueVector,
    WeightVector,
    discounted_return,
    empirical_value_estimate,
    scalarize,
)
from .ccs import (
    AolsResult,
    PartialCcs,
    aols,
    corner_weights,
    is_convex_undominated,
    optimistic_bound,
    relative_improvement,
    scalarized_max,
)
from .training import (
    CriticBank,
    TrainerConfig,
    evaluate_policy,
    train,
)

__all__ = [
    "AolsResult",
    "CriticBank",
    "Iorm",
    "PartialCcs",
    "TrainerConfig",
    "TrajectoryBatch",
    "ValueVector",
    "WeightVector",
    "aols",
    "corner_weights",
    "discounted_return",
    "empirical_value_estimate",
    "evaluate_policy",
    "is_convex_undominated",
    "optimistic_bound",
    "relative_improvement",
    "scalarize",
    "scalarized_max",
    "train",
]
