"""Slow reference implementations the round engine is checked against.

The engine has one production round path (cached plans and templates,
cohort requests through the executor, one aggregation fold per cohort).
The two behaviours it must stay bitwise identical to live here, where
production code never imports them:

- :func:`dense_aggregate` -- the textbook R2SP/BSP sum: every
  contribution is zero-expanded to the global shape
  (:func:`~repro.pruning.structured.recover_state_dict`), its residual
  model is materialised (:func:`~repro.pruning.masks.
  residual_state_dict`), and full-size arrays are added one
  contribution at a time;
- :class:`ReferenceEngine` -- the per-member round: an uncached
  ``build_plan`` + ``extract`` and a private global snapshot per worker,
  each member's own sub-model trained in place on the parent's workers,
  dense aggregation.

Both consume the same :class:`~repro.fl.engine.Dispatch` /
:class:`~repro.fl.aggregation.Contribution` records as the engine, so
schedulers, hooks and pricing are shared and only the arithmetic route
differs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.fl.aggregation import Aggregator, Contribution
from repro.fl.cohort import Cohort
from repro.fl.engine import Dispatch, Engine
from repro.pruning.masks import residual_state_dict
from repro.pruning.structured import recover_state_dict
from repro.runtime.executor import TrainResult

__all__ = ["dense_aggregate", "ReferenceEngine"]


def dense_aggregate(aggregator: Aggregator,
                    contributions: List[Contribution],
                    template: Dict[str, np.ndarray],
                    ) -> Dict[str, np.ndarray]:
    """What ``aggregator.aggregate`` must return, computed densely.

    Validation, weighting and the NaN policy are the aggregator's own
    (:meth:`~repro.fl.aggregation.Aggregator.weigh`, run on a fresh
    instance so no telemetry counter is touched twice); the sum is not.
    """
    reference = type(aggregator)()
    reference.nan_policy = aggregator.nan_policy
    weighted = reference.weigh(contributions)

    accumulator = {
        key: np.zeros_like(value, dtype=np.float64)
        for key, value in template.items()
    }
    total_weight = 0.0
    for _contribution, weight in weighted:
        total_weight += weight
    for contribution, weight in weighted:
        recovered = recover_state_dict(
            contribution.sub_state, contribution.plan, template
        )
        for key in accumulator:
            accumulator[key] += weight * recovered[key]
        if reference.needs_residual:
            residual = residual_state_dict(contribution.global_state,
                                           contribution.plan)
            for key in accumulator:
                accumulator[key] += weight * residual[key]
    return {key: value / total_weight for key, value in accumulator.items()}


class ReferenceEngine(Engine):
    """The per-member reference round, driven by the same schedulers.

    Build it with ``executor="serial"``: training runs inline on the
    parent's workers and never reaches the executor.
    """

    def dispatch_many(self, ratios: Dict[int, float], dispatch_time: float,
                      round_index: int) -> Dict[int, Dispatch]:
        dispatches = {}
        for worker_id, ratio in ratios.items():
            plan = self.task.build_plan(self.model, ratio)
            submodel = self.task.extract(self.model, plan, self.extract_rng)
            cohort = Cohort(
                ratio=float(ratio),
                cluster=self.workers.spec(worker_id).device.cluster,
                plan=plan, template=submodel,
                dispatched_state=submodel.state_dict(),
                member_ids=[worker_id],
                num_params=submodel.num_parameters(),
                global_state=(
                    self.global_state
                    if self.aggregator.needs_residual else None
                ),
            )
            dispatches[worker_id] = self._dispatch_member(
                worker_id, cohort, self.task.count_flops(submodel),
                dispatch_time, round_index,
            )
        return dispatches

    def _run_training(self, dispatches: Sequence[Dispatch],
                      round_index: int) -> List[TrainResult]:
        config = self.config
        results = []
        for dispatch in dispatches:
            submodel = dispatch.cohort.template
            train_loss = self.workers[dispatch.worker_id].local_train(
                submodel, tau=dispatch.tau, lr=config.lr,
                momentum=config.momentum, weight_decay=config.weight_decay,
                prox_mu=self.strategy.proximal_mu(),
                clip_norm=config.clip_norm,
                anchor=dispatch.dispatched_state,
            )
            results.append(TrainResult(
                worker_id=dispatch.worker_id,
                sub_state=submodel.state_dict(),
                train_loss=float(train_loss),
            ))
        return results

    def aggregate(self, contributions: List[Contribution],
                  round_index: int) -> Dict[str, np.ndarray]:
        contributions = self.hooks.before_aggregate(round_index,
                                                    contributions)
        self.model.load_state_dict(
            dense_aggregate(self.aggregator, contributions, self.template)
        )
        self.hooks.on_aggregate(round_index, contributions)
        return self.global_state
