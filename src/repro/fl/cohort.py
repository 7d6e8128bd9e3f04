"""Cohorts: the unit of work of every round.

A *cohort* is the set of sampled workers that share one
``(pruning ratio, device cluster)`` bucket in a round (a single worker
when the model carries rng-bearing modules, whose extraction must not
be shared).  The :class:`~repro.pruning.plan.PruningPlan`, the
extracted sub-model and its pristine state dict are materialised once
per cohort, so dispatch cost is O(cohorts) while per-member
bookkeeping shrinks to a handful of scalars (``tau``, round costs,
sample counts).

The cohort is also the granularity of a round's training requests
(one :class:`~repro.runtime.executor.CohortTrainRequest` each, collected
on every plane by :meth:`repro.runtime.executor.Executor.run_round`:
stacked through ``run_cohort`` where the in-process plane can, else as
member flights through one ``run`` call per wave) and of
aggregation (one recovered-model fold per cohort, over its float64
partial sum), and -- with ``scope="cluster"`` -- the granularity at
which the E-UCB strategy observes rewards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class Cohort:
    """One ``(ratio, cluster)`` bucket of a round's sampled workers.

    ``template`` is the shared extracted sub-model; the engine's
    executors never train it in place -- a member flight derives its
    own sub-model, and the stacked path stacks the template.
    ``dispatched_state`` is its pristine state dict, treated as
    immutable by every consumer.
    """

    ratio: float
    cluster: str
    plan: object
    template: object
    dispatched_state: Dict[str, np.ndarray]
    member_ids: List[int] = field(default_factory=list)
    #: shared sub-model parameter count (download volume per member)
    num_params: int = 0
    #: True when the architecture admits the stacked training path
    #: (:func:`repro.nn.batched.supports_cohort_training`)
    supports_vectorised: bool = False
    #: frozen pre-round global snapshot shared by the cohort's members
    #: on the residual-recovery (R2SP) path
    global_state: Optional[Dict[str, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.member_ids)
