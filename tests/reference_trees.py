"""Fruit trees: tabular problems whose convex coverage set is known.

A fruit tree of depth D is a binary tree of decisions. The agent starts at
the root and picks a branch D times; the last pick earns the reward of the
leaf it reaches, a unit vector in the positive orthant, and the leaf is
terminal. Each leaf is the only best leaf at the weight along its own
direction (Cauchy-Schwarz), so the convex coverage set is all 2^D leaves,
discounted by gamma^(D - 1).
"""

from __future__ import annotations

import numpy as np

from morlkit.core import ValueVector, WeightVector
from morlkit.envs import TabularMomdp

TREE_DISCOUNT = 0.99


def tree_leaves(depth: int, objectives: int, seed: int = 0) -> np.ndarray:
    """The 2^depth leaf rewards: |N(0, I)| draws scaled to unit length."""
    leaves = np.abs(np.random.default_rng(seed).normal(size=(2**depth, objectives)))
    return leaves / np.linalg.norm(leaves, axis=1, keepdims=True)


def fruit_tree(depth: int, objectives: int, seed: int = 0) -> TabularMomdp:
    """The tree over `tree_leaves`, as a `TabularMomdp`.

    States are numbered in heap order: node k has children 2k + 1 and
    2k + 2, so the 2^depth - 1 decision nodes come first and the leaves
    after them. Action a at node k moves to child 2k + 1 + a.
    """
    nodes = 2**depth - 1
    states = 2 * nodes + 1
    transitions = np.zeros((states, 2, states))
    rewards = np.zeros((states, 2, objectives))
    for k in range(nodes):
        transitions[k, [0, 1], [2 * k + 1, 2 * k + 2]] = 1.0
    last = 2 ** (depth - 1) - 1  # the first node whose children are leaves
    rewards[last:nodes] = tree_leaves(depth, objectives, seed).reshape(-1, 2, objectives)
    initial = np.zeros(states)
    initial[0] = 1.0
    terminal = np.arange(states) >= nodes
    return TabularMomdp(transitions, rewards, initial, TREE_DISCOUNT, terminal)


def best_leaf_oracle(depth: int, objectives: int, seed: int = 0):
    """An exact oracle for `fruit_tree`: the discounted leaf with the best
    scalarized value, the first among ties."""
    values = TREE_DISCOUNT ** (depth - 1) * tree_leaves(depth, objectives, seed)

    def oracle(w: WeightVector) -> ValueVector:
        return ValueVector(tuple(values[int(np.argmax(values @ w.array))]))

    return oracle
