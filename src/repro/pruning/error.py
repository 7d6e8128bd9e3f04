"""Pruning error ``Q_n^k`` from the convergence analysis (Section III-D).

``Q_n^k = E[||x^k - x_n^k||^2]`` measures how well the sparse model
approximates the global model after pruning; Theorem 1 shows the
convergence bound loosens linearly in the average pruning error, which
the bandit reward implicitly trades off against completion time.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.pruning.masks import sparse_state_dict
from repro.pruning.plan import PruningPlan


def pruning_error(full_state: Dict[str, np.ndarray],
                  plan: PruningPlan) -> float:
    """Squared l2 distance between the global and sparse models.

    Equals the sum of squares of every pruned parameter value, because
    the sparse model only differs from the global model at pruned
    positions.
    """
    sparse = sparse_state_dict(full_state, plan)
    total = 0.0
    for key, value in full_state.items():
        diff = value - sparse[key]
        total += float((diff ** 2).sum())
    return total
