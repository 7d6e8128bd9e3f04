"""Per-round records and the reductions the paper's figures report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RoundRecord:
    """Everything measured in one training round."""

    round_index: int
    sim_time_s: float            # simulated clock after this round
    round_time_s: float          # this round's duration (Eq. 6)
    metric: Optional[float]      # accuracy (or -perplexity) if evaluated
    eval_loss: Optional[float]
    train_loss: float
    ratios: Dict[int, float]     # worker -> pruning ratio
    completion_times: Dict[int, float]
    discarded: List[int] = field(default_factory=list)
    overhead_s: float = 0.0      # decision + pruning time on the PS
    #: stragglers whose dispatches carried over to the next round
    #: (semi-synchronous scheduling only; empty otherwise)
    carried_over: List[int] = field(default_factory=list)
    #: per-cohort aggregates (ratio/cluster/members/num_samples plus
    #: completion-time min/mean/max) recorded instead of the O(fleet)
    #: ``ratios``/``completion_times`` dicts when
    #: ``FLConfig.history_detail`` resolves to ``"cohort"``; ``None``
    #: under member-level detail
    cohorts: Optional[List[Dict[str, Any]]] = None
    #: free-form per-round measurements published by round hooks.
    #: Values must be JSON-serialisable (numbers, strings, and nested
    #: lists/dicts thereof): scalars like ``wall_time_s`` sit next to
    #: structured payloads like the per-worker E-UCB snapshot under
    #: ``"eucb"``, and :func:`repro.io.save_history` serialises them all.
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TrainingHistory:
    """Round-by-round history of one run, plus figure-ready reductions.

    ``higher_is_better`` is True for accuracy and False for perplexity
    (where ``metric`` stores the perplexity directly).
    """

    strategy: str
    model_name: str
    higher_is_better: bool = True
    rounds: List[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.rounds.append(record)

    # ------------------------------------------------------------------
    # reductions used by the figures/tables
    # ------------------------------------------------------------------
    def _reached(self, metric: float, target: float) -> bool:
        if self.higher_is_better:
            return metric >= target
        return metric <= target

    def time_to_target(self, target: float) -> Optional[float]:
        """Simulated seconds until the eval metric first reaches
        ``target``; ``None`` when never reached (Figs. 8-10, 12)."""
        for record in self.rounds:
            if record.metric is not None and self._reached(record.metric, target):
                return record.sim_time_s
        return None

    def metric_at_time(self, budget_s: float) -> Optional[float]:
        """Best eval metric achieved within a time budget (Table III)."""
        best: Optional[float] = None
        for record in self.rounds:
            if record.sim_time_s > budget_s:
                break
            if record.metric is None:
                continue
            if best is None or (
                record.metric > best if self.higher_is_better
                else record.metric < best
            ):
                best = record.metric
        return best

    def final_metric(self) -> Optional[float]:
        for record in reversed(self.rounds):
            if record.metric is not None:
                return record.metric
        return None

    def accuracy_curve(self) -> List[tuple]:
        """(sim_time, metric) points for evaluated rounds (Fig. 6)."""
        return [
            (record.sim_time_s, record.metric)
            for record in self.rounds if record.metric is not None
        ]

    def round_curve(self) -> List[tuple]:
        """(round_index, metric) points (Fig. 7)."""
        return [
            (record.round_index, record.metric)
            for record in self.rounds if record.metric is not None
        ]

    def mean_round_time(self) -> float:
        if not self.rounds:
            return 0.0
        return sum(r.round_time_s for r in self.rounds) / len(self.rounds)

    def percentile_round_time(self, p: float) -> float:
        """p-th percentile of per-round durations (Eq. 6 tail view).

        Linear interpolation between order statistics; 0 with no
        rounds.  ``p`` is in percent, e.g. ``percentile_round_time(95)``
        is the straggler-dominated tail the semi-sync deadline targets.
        """
        if not self.rounds:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        times = sorted(record.round_time_s for record in self.rounds)
        if len(times) == 1:
            return times[0]
        rank = (p / 100.0) * (len(times) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(times) - 1)
        fraction = rank - low
        return times[low] + fraction * (times[high] - times[low])

    @property
    def total_overhead_s(self) -> float:
        """Total PS-side decision + pruning time across the run."""
        return sum(r.overhead_s for r in self.rounds)

    @property
    def total_time_s(self) -> float:
        return self.rounds[-1].sim_time_s if self.rounds else 0.0
