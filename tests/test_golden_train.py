"""Fixed-seed multi-objective training output pinned across commits.

Acceptance criterion 10 checks that one commit reproduces its own outputs;
these tests check that they do not change from one commit to the next.
Each digest in tests/golden/ covers the metrics rows, the actor, every
critic and the coverage set of one small run: a 4-objective locomotion run
on two env copies, and a 2-objective treasure run on one copy, which steps
the table-lookup `DiscreteToBox` path. A change that is meant to alter
training output updates the file and says why.

The digest depends on floating-point results of numpy's BLAS calls, so it
is exact only for a given numpy build and CPU family (x86-64, OpenBLAS).
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from morlkit.envs import ToyLocomotion, TreasureGrid, boxed_treasure
from morlkit.nets import mlp_to_arrays, policy_to_arrays
from morlkit.training import TrainerConfig, train

GOLDEN = Path(__file__).parent / "golden" / "train_locomotion_i4.sha256"
TREASURE_GOLDEN = Path(__file__).parent / "golden" / "train_treasure_i2.sha256"

# Locomotion, 4 objectives, 2 copies x 64 steps, 2 epochs, 2 updates per
# objective; minibatches of 48 leave a short last minibatch of 32 rows.
CONFIG = TrainerConfig(
    objective_count=4,
    updates_per_objective=2,
    steps_per_update=64,
    env_copies=2,
    epochs_per_update=2,
    minibatch_size=48,
    discount=0.99,
    seed=7,
)

# Treasure 3x3, 2 objectives, 1 copy x 48 steps, 2 epochs, 2 updates per
# objective; episodes of at most 10 steps end inside each phase.
TREASURE_GRID = TreasureGrid(width=3, height=3, treasures=((0, 2, 3.0), (2, 2, 12.0)), horizon=10)
TREASURE_CONFIG = TrainerConfig(
    objective_count=2,
    updates_per_objective=2,
    steps_per_update=48,
    env_copies=1,
    epochs_per_update=2,
    minibatch_size=32,
    discount=0.95,
    seed=3,
)


def run_digest(art) -> str:
    h = hashlib.sha256()

    def arrays(named: dict) -> None:
        for name in sorted(named):
            arr = np.ascontiguousarray(named[name], dtype=float)
            h.update(f"{name} {arr.shape}\n".encode())
            h.update(arr.tobytes())

    for row in art.metrics:
        h.update((repr(dataclasses.astuple(row)) + "\n").encode())
    arrays(policy_to_arrays(art.actor))
    for k, net in enumerate(art.critics.nets):
        arrays(mlp_to_arrays(net, f"critic_{k}"))
    for v in art.ccs.vectors:
        h.update((repr(v.values) + "\n").encode())
    return h.hexdigest()


def test_locomotion_four_objectives_matches_golden_digest():
    art = train(lambda: ToyLocomotion(horizon=40), CONFIG)
    assert len(art.metrics) == 8 and len(art.critics.nets) == 4
    assert run_digest(art) == GOLDEN.read_text().split()[0]


def test_treasure_two_objectives_one_copy_matches_golden_digest():
    art = train(lambda: boxed_treasure(TREASURE_GRID), TREASURE_CONFIG)
    assert len(art.metrics) == 4 and len(art.critics.nets) == 2
    assert run_digest(art) == TREASURE_GOLDEN.read_text().split()[0]
