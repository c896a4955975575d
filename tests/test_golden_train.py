"""Fixed-seed multi-objective training output pinned across commits.

Acceptance criterion 10 checks that one commit reproduces its own outputs;
this test checks that they do not change from one commit to the next. The
digest in tests/golden/ covers the metrics rows, the actor, every critic
and the coverage set of a small 4-objective locomotion run. A change that
is meant to alter training output updates the file and says why.

The digest depends on floating-point results of numpy's BLAS calls, so it
is exact only for a given numpy build and CPU family (x86-64, OpenBLAS).
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from morlkit.envs import ToyLocomotion
from morlkit.nets import mlp_to_arrays, policy_to_arrays
from morlkit.training import TrainerConfig, train

GOLDEN = Path(__file__).parent / "golden" / "train_locomotion_i4.sha256"

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
