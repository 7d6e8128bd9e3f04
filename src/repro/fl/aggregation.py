"""Aggregator classes: the pluggable global-aggregation layer.

Each :class:`Aggregator` turns one round's :class:`Contribution` set
into a new global state through one fold: rebuild every returned
sub-model in the global shape (its *recovered model*), accumulate the
weighted recovered models, normalise.  Aggregators differ along two
independent axes:

**Residual recovery** (Section III-C / Fig. 7):

- **R2SP** (the paper's contribution): each recovered sub-model has its
  residual model (global minus the dispatched sparse version) added
  back, so every parameter either carries its freshly trained value or
  its pre-round global value.  Pruned parameters survive to be trained
  in later rounds.  The fold builds this directly: the recovered model
  starts as the pre-round global array and takes the uploaded values
  at the kept positions.
- **BSP**: plain averaging of the recovered sub-models without residual
  recovery -- the same fold over a zero base; positions that a worker
  pruned contribute zeros to the average, so parameters that were ever
  pruned shrink towards zero -- the degradation Fig. 7 shows.

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
from repro.pruning.structured import scatter_assign_param


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
    starts the recovered model from it, so pruned positions keep their
    global value and kept positions take the upload.
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

    def weigh(self, contributions: List[Contribution],
              scan: bool = True) -> list:
        """Validate one round's contributions and attach their weights.

        Returns the ``(contribution, weight)`` pairs that take part in
        the average.  Zero-weight contributions (e.g. a worker handed an
        empty shard by a pathological non-IID partition) carry no
        information and are skipped; only a round where *every* weight
        vanishes is an error.  Negative weights are always rejected, as
        are duplicate worker ids (no scheduler produces them
        legitimately).  With ``scan``, NaN/Inf-poisoned contributions
        are rejected or skipped per ``nan_policy``; :meth:`aggregate`
        first weighs without it (see there).
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
            if scan and self.nan_policy != "off":
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
        :meth:`weigh` for which contributions take part.  Every group
        :meth:`_cohort_groups` returns -- one dispatched cohort, or a
        single member -- goes through the one :meth:`_fold`.

        Fold first, scan on failure: every uploaded element lands in the
        float64 accumulator, and NaN or Inf there never washes out, so
        a finite accumulator proves that no folded upload was poisoned
        and the per-member scan is skipped.  A non-finite accumulator
        (or an unscanned pass that raised) redoes the round scan-first
        -- the same :meth:`weigh` and fold -- which decides errors,
        skips and their counters exactly as a scan-first round does.
        """
        if self.nan_policy != "off":
            try:
                with np.errstate(invalid="ignore"):
                    weighted = self.weigh(contributions, scan=False)
                    folded = self._fold_round(weighted, template)
            except (ValueError, KeyError):
                folded = None
            if folded is not None and self._clean(folded[0], weighted,
                                                  template):
                return self._finish(weighted, *folded)
        weighted = self.weigh(contributions)
        return self._finish(weighted, *self._fold_round(weighted, template))

    def _fold_round(self, weighted, template):
        """The float64 accumulator of every group's :meth:`_fold`, and
        the scatter times of the cohort groups."""
        accumulator: Dict[str, np.ndarray] = {
            key: np.zeros_like(value, dtype=np.float64)
            for key, value in template.items()
        }
        scatter_s = [self._fold(accumulator, members, template)
                     for members in self._cohort_groups(weighted)]
        return accumulator, [elapsed for elapsed in scatter_s
                             if elapsed is not None]

    @staticmethod
    def _clean(accumulator, weighted, template) -> bool:
        """Whether an unscanned fold proves every upload finite: one
        check per accumulator key, plus the uploads' entries outside
        the template, which the fold never reads."""
        if not all(np.isfinite(value).all() for value in accumulator.values()):
            return False
        for contribution, _weight in weighted:
            sub_state = contribution.sub_state
            if sub_state.keys() <= template.keys():
                continue
            if not all(np.isfinite(value).all()
                       for key, value in sub_state.items()
                       if key not in template):
                return False
        return True

    def _finish(self, weighted, accumulator, scatter_s):
        """Count the kept fold's cohort groups and normalise."""
        if self.metrics is not None:
            for elapsed in scatter_s:
                self.metrics.counter(
                    "aggregate_cohort_partial_sums_total",
                ).inc()
                self.metrics.histogram("aggregate_scatter_add_s").observe(
                    elapsed
                )
        total_weight = 0.0
        for _contribution, weight in weighted:
            total_weight += weight
        return {
            key: value / total_weight for key, value in accumulator.items()
        }

    def _cohort_groups(self, weighted):
        """Group weighted contributions that share one dispatched cohort.

        Contributions qualify when they share the identical plan object
        and the identical frozen global snapshot, and carry unit weight
        -- the conditions under which folding the members' partial sum
        once is exactly the member-order accumulation (see
        :meth:`_fold`).  Everything else stays a singleton group.
        Groups come back in first-occurrence order.
        """
        groups: Dict[object, list] = {}
        for contribution, weight in weighted:
            if weight == 1.0:
                key = (id(contribution.plan), id(contribution.global_state))
            else:
                key = ("solo", contribution.worker_id)
            groups.setdefault(key, []).append((contribution, weight))
        return list(groups.values())

    def _fold(self, accumulator: Dict[str, np.ndarray], members: list,
              template: Dict[str, np.ndarray]) -> Optional[float]:
        """Add one group's recovered model, weighted, to ``accumulator``;
        return a timed cohort's scatter seconds (``None`` otherwise).

        Per planned key the recovered model starts from its base -- the
        pre-round global array under R2SP (so pruned positions carry the
        residual), zeros without residual recovery -- and takes the
        uploaded values at the kept positions.  A cohort of ``M``
        unit-weight members uploads its float64 partial sum over a base
        of ``M * global`` in float64.

        Bitwise this is the per-member zero-expansion plus residual
        model: every position receives the same float32 product (or,
        for a cohort, the same exact float64 sum) in the same order.
        Without a residual, pruned positions add ``+0.0``, which is
        exact: an accumulator starting at ``+0.0`` never holds ``-0.0``
        under round-to-nearest.  A unit weight is not multiplied in:
        ``x * 1.0 == x`` for every float, signed zeros included.
        """
        first, weight = members[0]
        plan = first.plan
        planned = plan.param_names()
        count = len(members)
        timed = self.metrics is not None and count > 1
        scatter_start = time.perf_counter() if timed else 0.0

        sub_state = first.sub_state
        if count > 1:
            sub_state = {key: value.astype(np.float64)
                         for key, value in sub_state.items()}
            for contribution, _weight in members[1:]:
                for key, partial in sub_state.items():
                    partial += contribution.sub_state[key]

        for key, full_value in template.items():
            sub_value = sub_state[key]
            entry_info = planned.get(key)
            if entry_info is None:
                if sub_value.shape != full_value.shape:
                    raise ValueError(
                        f"unplanned entry {key!r} changed shape: "
                        f"{sub_value.shape} vs {full_value.shape}"
                    )
                accumulator[key] += (sub_value if weight == 1.0
                                     else weight * sub_value)
                continue
            if self.needs_residual:
                recovered = first.global_state[key].astype(sub_value.dtype)
                if count > 1:
                    recovered *= count
            else:
                recovered = np.zeros(full_value.shape, dtype=sub_value.dtype)
            layer_name, suffix = entry_info
            scatter_assign_param(recovered, suffix, plan[layer_name],
                                 sub_value)
            if weight != 1.0:
                recovered *= weight
            accumulator[key] += recovered

        return time.perf_counter() - scatter_start if timed else None


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
