"""Aggregator classes: the pluggable global-aggregation layer.

Each :class:`Aggregator` turns one round's :class:`Contribution` set
into a new global state.  All aggregators share the same skeleton --
zero-expand every sub-model to the global shape, accumulate, normalise
-- and differ along two independent axes:

**Residual recovery** (Section III-C / Fig. 7):

- **R2SP** (the paper's contribution): each recovered sub-model has its
  residual model (global minus the dispatched sparse version) added
  back, so every parameter either carries its freshly trained value or
  its pre-round global value.  Pruned parameters survive to be trained
  in later rounds.
- **BSP**: plain averaging of the recovered sub-models without residual
  recovery; positions that a worker pruned contribute zeros to the
  average, so parameters that were ever pruned shrink towards zero --
  the degradation Fig. 7 shows.

**Participation weighting**:

- The uniform variants weight every contribution ``1/N`` -- the paper's
  setting, where all workers hold same-size shards and all participate.
- The ``*_weighted`` variants weight contribution *i* by
  ``num_samples_i / sum_j num_samples_j`` over the round's **actual
  participants**.  Under churn or deadline-induced partial
  participation the participant set varies round to round, so uniform
  ``1/N`` averaging over-counts small shards; sample-count weighting
  keeps the aggregate an unbiased estimate of the population update
  (the FedAvg weighting rule restricted to the present workers).

Weights are renormalised over the participants of each round, so a
round where only two workers arrive averages those two workers'
recovered models (plus residuals, under R2SP) with weights summing
to one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

import numpy as np

from repro.pruning.plan import PruningPlan
from repro.pruning.structured import scatter_add_param, scatter_add_residual


class AggregationError(ValueError):
    """Base class for typed aggregation failures.

    Subclasses ``ValueError`` so pre-existing callers that catch the
    untyped error keep working; new code should catch the specific
    subclasses below.
    """


class EmptyRoundError(AggregationError):
    """No contribution (or none with positive weight) to aggregate."""


class DuplicateContributionError(AggregationError):
    """Two contributions from the same worker in one round.

    No scheduler produces this legitimately (a worker has at most one
    outstanding dispatch), so a duplicate always signals a bug or an
    injected fault upstream.
    """


class PoisonedUpdateError(AggregationError):
    """A contribution carries NaN/Inf values.

    One poisoned array would silently corrupt the whole global model
    (NaN propagates through the weighted average), so the aggregator
    rejects it -- or, under ``nan_policy="skip"``, drops the offending
    contribution and counts it.
    """


@dataclass
class Contribution:
    """One worker's round output, ready for aggregation.

    ``num_samples`` is the size of the worker's local shard; only the
    weighted aggregators read it (the uniform ones weight every
    contribution equally).

    R2SP-family aggregators need the residual model (global minus the
    dispatched sparse version).  It is never materialised: the
    contribution carries ``global_state``, the frozen pre-round global
    state shared by every contribution of the round, and the aggregator
    folds the residual in from it at the pruned positions.
    """

    worker_id: int
    sub_state: Dict[str, np.ndarray]
    plan: PruningPlan
    num_samples: int = 1
    global_state: Optional[Dict[str, np.ndarray]] = None


class Aggregator:
    """Base class: weighted average of zero-expanded sub-models.

    Subclasses set ``needs_residual`` (R2SP residual recovery) and
    override :meth:`weight` (participation weighting).  ``name`` is the
    scheme string used by :class:`repro.fl.config.FLConfig` and the CLI.
    """

    name: str = "base"
    #: whether contributions must carry a residual model (R2SP family)
    needs_residual: bool = False
    #: what to do with NaN/Inf-poisoned contributions: "raise" (reject
    #: the round with :class:`PoisonedUpdateError`), "skip" (drop the
    #: contribution and count it) or "off" (no finiteness scan)
    nan_policy: str = "raise"
    #: optional :class:`repro.telemetry.MetricsRegistry` the aggregator
    #: counts skipped poisoned updates into (set by the engine)
    metrics = None

    NAN_POLICIES = ("raise", "skip", "off")

    def weight(self, contribution: Contribution) -> float:
        """Unnormalised weight of one contribution (uniform by default)."""
        return 1.0

    def _poisoned_entry(self, contribution: Contribution) -> Optional[str]:
        """Name of the first non-finite uploaded array, or ``None``."""
        for key, value in contribution.sub_state.items():
            if not np.isfinite(value).all():
                return key
        return None

    def weigh(self, contributions: List[Contribution]) -> list:
        """Validate one round's contributions and attach their weights.

        Returns the ``(contribution, weight)`` pairs that take part in
        the average.  Zero-weight contributions (e.g. a worker handed an
        empty shard by a pathological non-IID partition) carry no
        information and are skipped; only a round where *every* weight
        vanishes is an error.  Negative weights are always rejected, as
        are duplicate worker ids (no scheduler produces them
        legitimately).  NaN/Inf-poisoned contributions are rejected or
        skipped per ``nan_policy``.
        """
        if not contributions:
            raise EmptyRoundError("cannot aggregate an empty contribution set")
        seen = set()
        for contribution in contributions:
            if contribution.worker_id in seen:
                raise DuplicateContributionError(
                    f"worker {contribution.worker_id} contributed twice in "
                    f"one round"
                )
            seen.add(contribution.worker_id)

        weighted = []
        for contribution in contributions:
            weight = self.weight(contribution)
            if weight < 0.0:
                raise AggregationError(
                    f"negative aggregation weight {weight} for worker "
                    f"{contribution.worker_id}"
                )
            if weight == 0.0:
                continue
            if self.needs_residual and contribution.global_state is None:
                raise ValueError(
                    f"R2SP residual recovery needs the pre-round global "
                    f"state of worker {contribution.worker_id}"
                )
            if self.nan_policy != "off":
                poisoned = self._poisoned_entry(contribution)
                if poisoned is not None:
                    if self.nan_policy == "raise":
                        raise PoisonedUpdateError(
                            f"worker {contribution.worker_id} uploaded "
                            f"non-finite values in {poisoned!r}"
                        )
                    if self.metrics is not None:
                        self.metrics.counter(
                            "poisoned_updates_total",
                            worker=contribution.worker_id,
                        ).inc()
                    continue
            weighted.append((contribution, weight))
        if not weighted:
            raise EmptyRoundError(
                "all contributions have non-positive aggregation weight; "
                "nothing to aggregate"
            )
        return weighted

    def aggregate(self, contributions: List[Contribution],
                  template: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Aggregate one round of contributions into a new global state.

        ``template`` supplies the global shapes for zero-expansion; see
        :meth:`weigh` for which contributions take part.  Members of one
        dispatched cohort fold in as a partial sum, everything else by
        per-member scatter-add.
        """
        weighted = self.weigh(contributions)
        accumulator: Dict[str, np.ndarray] = {
            key: np.zeros_like(value, dtype=np.float64)
            for key, value in template.items()
        }
        total_weight = 0.0
        for _contribution, weight in weighted:
            total_weight += weight

        for members in self._cohort_groups(weighted):
            if len(members) == 1:
                contribution, weight = members[0]
                self._accumulate_scatter(accumulator, contribution, weight,
                                         template)
            else:
                self._accumulate_cohort(accumulator, members, template)

        return {
            key: value / total_weight for key, value in accumulator.items()
        }

    def _cohort_groups(self, weighted):
        """Group weighted contributions that share one dispatched cohort.

        Contributions qualify when they share the identical plan object
        and the identical frozen global snapshot, and carry unit weight
        -- the conditions under which a per-cohort partial sum plus a
        single residual fold is exactly the member-order accumulation
        (see :meth:`_accumulate_cohort`).  Everything else
        stays a singleton group on the per-member scatter path.  Groups
        come back in first-occurrence order.
        """
        groups: Dict[object, list] = {}
        order = []
        for contribution, weight in weighted:
            if weight == 1.0:
                key = (id(contribution.plan), id(contribution.global_state))
            else:
                key = ("solo", contribution.worker_id)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((contribution, weight))
        return [groups[key] for key in order]

    def _accumulate_cohort(self, accumulator: Dict[str, np.ndarray],
                           members: list,
                           template: Dict[str, np.ndarray]) -> None:
        """Cohort path: one partial sum + one residual fold per group.

        All member weights are exactly 1.0 (enforced by
        :meth:`_cohort_groups`), so the float64 partial sum accumulates
        the identical addends the per-member path would have scattered,
        and the residual -- identical for every member, since they share
        the plan and the global snapshot -- folds in once with the group
        weight, multiplied in float64 so ``M * g`` is the exact sum of
        ``M`` unit-weight folds.
        """
        first, _ = members[0]
        plan = first.plan
        planned = plan.param_names()
        scatter_start = time.perf_counter() if self.metrics is not None \
            else 0.0

        partial: Dict[str, np.ndarray] = {}
        for contribution, _weight in members:
            for key, sub_value in contribution.sub_state.items():
                existing = partial.get(key)
                if existing is None:
                    partial[key] = sub_value.astype(np.float64)
                else:
                    existing += sub_value

        for key, full_value in template.items():
            entry_info = planned.get(key)
            if entry_info is not None:
                layer_name, suffix = entry_info
                scatter_add_param(accumulator[key], suffix, plan[layer_name],
                                  partial[key], 1.0)
            else:
                if partial[key].shape != full_value.shape:
                    raise ValueError(
                        f"unplanned entry {key!r} changed shape: "
                        f"{partial[key].shape} vs {full_value.shape}"
                    )
                accumulator[key] += partial[key]

        if self.needs_residual:
            global_state = first.global_state
            group_weight = float(len(members))
            for key, (layer_name, suffix) in planned.items():
                if key in accumulator:
                    scatter_add_residual(
                        accumulator[key], suffix, plan[layer_name],
                        global_state[key].astype(np.float64), group_weight,
                    )
        if self.metrics is not None:
            self.metrics.counter(
                "aggregate_cohort_partial_sums_total",
            ).inc()
            self.metrics.histogram("aggregate_scatter_add_s").observe(
                time.perf_counter() - scatter_start
            )

    def _accumulate_scatter(self, accumulator: Dict[str, np.ndarray],
                            contribution: Contribution, weight: float,
                            template: Dict[str, np.ndarray]) -> None:
        """Per-member path: indexed in-place accumulation, no full-size
        per-contribution allocations."""
        plan = contribution.plan
        planned = plan.param_names()
        sub_state = contribution.sub_state
        for key, full_value in template.items():
            sub_value = sub_state[key]
            entry_info = planned.get(key)
            if entry_info is not None:
                layer_name, suffix = entry_info
                scatter_add_param(accumulator[key], suffix, plan[layer_name],
                                  sub_value, weight)
            else:
                if sub_value.shape != full_value.shape:
                    raise ValueError(
                        f"unplanned entry {key!r} changed shape: "
                        f"{sub_value.shape} vs {full_value.shape}"
                    )
                accumulator[key] += weight * sub_value
        if self.needs_residual:
            # The residual is the pre-round global value at pruned
            # positions and zero at kept ones; unplanned keys were
            # dispatched whole so their residual vanishes entirely.
            global_state = contribution.global_state
            for key, (layer_name, suffix) in planned.items():
                if key in accumulator:
                    scatter_add_residual(
                        accumulator[key], suffix, plan[layer_name],
                        global_state[key], weight,
                    )


class BSPAggregator(Aggregator):
    """Uniform average of recovered sub-models, no residual recovery."""

    name = "bsp"
    needs_residual = False


class R2SPAggregator(Aggregator):
    """Uniform average with residual recovery (the paper's R2SP)."""

    name = "r2sp"
    needs_residual = True


class _SampleWeighted:
    """Mixin: weight each contribution by its shard's sample count."""

    def weight(self, contribution: Contribution) -> float:
        return float(contribution.num_samples)


class WeightedBSPAggregator(_SampleWeighted, BSPAggregator):
    """BSP with sample-count weighting over the round's participants."""

    name = "bsp_weighted"


class WeightedR2SPAggregator(_SampleWeighted, R2SPAggregator):
    """R2SP with sample-count weighting over the round's participants."""

    name = "r2sp_weighted"


#: scheme string -> aggregator class, for config/CLI dispatch
AGGREGATORS: Dict[str, Type[Aggregator]] = {
    cls.name: cls
    for cls in (
        R2SPAggregator, BSPAggregator,
        WeightedR2SPAggregator, WeightedBSPAggregator,
    )
}


def make_aggregator(scheme: str, nan_policy: str = "raise") -> Aggregator:
    """Instantiate the aggregator named by a ``sync_scheme`` string."""
    if nan_policy not in Aggregator.NAN_POLICIES:
        raise ValueError(
            f"nan_policy must be one of {Aggregator.NAN_POLICIES}, "
            f"got {nan_policy!r}"
        )
    try:
        aggregator = AGGREGATORS[scheme]()
    except KeyError:
        raise ValueError(f"unknown aggregation scheme {scheme!r}") from None
    aggregator.nan_policy = nan_policy
    return aggregator
