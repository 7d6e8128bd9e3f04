"""The round loop, and the rules that plug into it.

A FedMP round is always the same: E-UCB decides the pruning ratios,
the PS prunes and dispatches, workers train, the PS aggregates (R2SP)
and feeds E-UCB its reward.  :meth:`Scheduler.run` is that round --
the only round loop of the package.  A synchronisation rule supplies
only what differs: *which* arrivals are aggregated, and *when*.

- :meth:`Scheduler.bootstrap` -- the in-flight dispatches of a fresh
  run (``None`` for a rule that keeps nothing in flight);
- :meth:`Scheduler.collect` -- this round's dispatches in aggregation
  order, the round time and the record's detail; it also advances the
  simulated clock;
- :meth:`Scheduler.refill` -- re-dispatch after aggregation.

The sync barrier dispatches and collects inside its round.  The
queued rules (async, semi-sync) keep every dispatch in flight across
rounds in a :class:`DispatchQueue`: a dispatched sub-model is an event
that fires at ``dispatch_time + costs.total_s`` on
:class:`repro.simulation.clock.SimulationClock`, and the queue orders
the outstanding events by that finish time.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fl.aggregation import EmptyRoundError
from repro.fl.checkpoint import CheckpointError
from repro.fl.engine import Dispatch, Engine
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.strategies.base import RoundObservation


@dataclass
class Collected:
    """One round's aggregation set, as a rule collected it."""

    arrivals: List[Dispatch]          # aggregated, in aggregation order
    round_time_s: float
    #: the record's member detail (see :meth:`Engine.round_detail`)
    ratios: Dict[int, float]
    times: Dict[int, float]
    dispatches: Dict[int, Dispatch]
    discarded: List[int] = field(default_factory=list)
    carried_over: List[int] = field(default_factory=list)
    #: PS time spent deciding and dispatching inside :meth:`collect`
    overhead_s: float = 0.0


class Scheduler:
    """One round loop; subclasses are the synchronisation rules."""

    name: str = "base"
    #: whether the rule keeps dispatches in flight across rounds (its
    #: checkpoints must then carry the :class:`DispatchQueue`)
    queued: bool = False

    def run(self, engine: Engine) -> TrainingHistory:
        """Drive the engine to completion and return its history."""
        config = engine.config
        resume = engine.take_resume(self.name)
        if resume is None:
            start_round, queue = 0, self.bootstrap(engine)
        else:
            # a queued rule bootstrapped in the original process: the
            # checkpoint carries its in-flight dispatches and every RNG
            # stream at its post-bootstrap position
            start_round, queue = resume["next_round"], resume["queue"]
            if self.queued and queue is None:
                raise CheckpointError(
                    f"{self.name} checkpoint is missing its dispatch queue"
                )
        for round_index in range(start_round, config.max_rounds):
            with engine.telemetry.span("round", round=round_index,
                                       scheduler=self.name) as round_span:
                collected = self.collect(engine, queue, round_index,
                                         round_span)
                trained = engine.train_all(collected.arrivals, round_index)
                engine.aggregate([contribution for contribution, _ in trained],
                                 round_index)
                mean_train_loss = float(np.mean([loss for _, loss in trained]))
                engine.strategy.observe_round(RoundObservation(
                    round_index=round_index,
                    costs={d.worker_id: d.costs for d in collected.arrivals},
                    delta_loss=engine.delta_loss(mean_train_loss),
                    discarded=collected.discarded,
                    carried_over=collected.carried_over,
                ))
                # the contributions hold row views of the round's cohort
                # blocks (DESIGN.md 3.3, hand-off rule): free them before
                # the next round trains
                del trained
                refill_start = time.perf_counter()
                self.refill(engine, queue, collected, round_index + 1,
                            round_span)
                overhead_s = (collected.overhead_s
                              + time.perf_counter() - refill_start)

                metric, eval_loss = engine.evaluate(
                    round_index, force=round_index == config.max_rounds - 1
                )
                ratios, times, cohorts = engine.round_detail(
                    collected.ratios, collected.times, collected.dispatches
                )
                record = RoundRecord(
                    round_index=round_index, sim_time_s=engine.clock.now,
                    round_time_s=collected.round_time_s, metric=metric,
                    eval_loss=eval_loss, train_loss=mean_train_loss,
                    ratios=ratios, completion_times=times,
                    discarded=collected.discarded, overhead_s=overhead_s,
                    carried_over=collected.carried_over, cohorts=cohorts,
                )
                engine.finish_round(record)
                round_span.set("sim_time_s", engine.clock.now)
                round_span.set("round_time_s", record.round_time_s)
            stop = engine.should_stop(record)
            engine.maybe_checkpoint(self.name, round_index + 1,
                                    queue=queue, stop=stop)
            if stop or engine.interrupt_requested:
                break
        return engine.history

    def bootstrap(self, engine: Engine) -> Optional["DispatchQueue"]:
        """The in-flight dispatches of a fresh run."""
        return None

    def collect(self, engine: Engine, queue: Optional["DispatchQueue"],
                round_index: int, span) -> Collected:
        """This round's arrivals; advances the simulated clock."""
        raise NotImplementedError

    def refill(self, engine: Engine, queue: Optional["DispatchQueue"],
               collected: Collected, next_round: int, span) -> None:
        """Re-dispatch after the round's aggregation."""

    @staticmethod
    def dispatch(engine: Engine, worker_ids: List[int], round_index: int,
                 **attrs) -> Tuple[Dict[int, float], Dict[int, Dispatch]]:
        """Decide ``worker_ids``' ratios and dispatch their sub-models
        at the current simulated time."""
        with engine.telemetry.span("decide", round=round_index, **attrs,
                                   workers=len(worker_ids)):
            ratios = engine.strategy.select_ratios(round_index,
                                                   worker_ids=worker_ids)
        return ratios, engine.dispatch_many(ratios, engine.clock.now,
                                            round_index)

    def enqueue(self, engine: Engine, queue: "DispatchQueue",
                worker_ids: List[int], round_index: int, **attrs) -> None:
        """:meth:`dispatch` ``worker_ids`` into the in-flight queue."""
        for dispatch in self.dispatch(engine, worker_ids, round_index,
                                      **attrs)[1].values():
            queue.add(dispatch)


def arrived(arrivals: List[Dispatch], round_time_s: float,
            times_in_arrival_order: bool, **detail) -> Collected:
    """A queued rule's :class:`Collected`: the record lists arrivals by
    worker id (completion times optionally in arrival order)."""
    by_id = sorted(arrivals, key=lambda d: d.worker_id)
    return Collected(
        arrivals=arrivals, round_time_s=round_time_s,
        ratios={d.worker_id: d.ratio for d in by_id},
        times={d.worker_id: d.costs.total_s
               for d in (arrivals if times_in_arrival_order else by_id)},
        dispatches={d.worker_id: d for d in arrivals}, **detail,
    )


class DispatchQueue:
    """Outstanding dispatches as a min-heap of completion events.

    Each dispatch is one event firing at ``dispatch_time +
    costs.total_s``; popping the next arrival is O(log n), so
    event-driven rounds cost O(sampled) heap traffic rather than
    O(fleet) scans.  The heap is keyed ``(finish_time, insertion
    sequence)``: the sequence tiebreak keeps event-driven runs bitwise
    reproducible.
    """

    def __init__(self) -> None:
        self._outstanding: Dict[int, Dispatch] = {}
        self._heap: List[Tuple[float, int, Dispatch]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._outstanding)

    def __contains__(self, worker_id: int) -> bool:
        return worker_id in self._outstanding

    @property
    def worker_ids(self) -> List[int]:
        return list(self._outstanding)

    def add(self, dispatch: Dispatch) -> None:
        if dispatch.worker_id in self._outstanding:
            raise ValueError(
                f"worker {dispatch.worker_id} already has an outstanding "
                f"dispatch"
            )
        self._outstanding[dispatch.worker_id] = dispatch
        heapq.heappush(self._heap, (dispatch.finish_time, self._seq, dispatch))
        self._seq += 1

    def _pop(self) -> Dispatch:
        _, _, dispatch = heapq.heappop(self._heap)
        del self._outstanding[dispatch.worker_id]
        return dispatch

    def pop_first(self, m: int) -> List[Dispatch]:
        """Remove and return the ``m`` earliest-finishing dispatches.

        Raises :class:`EmptyRoundError` when nothing is in flight: every
        in-flight worker left, so nothing can ever arrive again.
        """
        if not self._outstanding:
            raise EmptyRoundError(
                "the dispatch queue is empty -- all in-flight workers left"
            )
        return [self._pop() for _ in range(min(m, len(self._outstanding)))]

    def pop_until(self, deadline: float) -> List[Dispatch]:
        """Remove and return every dispatch finishing at or before
        ``deadline``, earliest first."""
        arrivals = []
        while self._heap and self._heap[0][0] <= deadline:
            arrivals.append(self._pop())
        return arrivals
