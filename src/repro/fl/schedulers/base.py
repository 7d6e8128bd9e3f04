"""Scheduler interface: who aggregates when.

A :class:`Scheduler` drives an :class:`repro.fl.engine.Engine` through
its rounds; the engine supplies the building blocks (dispatch, train,
aggregate, record), the scheduler supplies the synchronisation rule:

- :class:`~repro.fl.schedulers.sync.SynchronousScheduler` -- barrier
  per round (Eq. 6), optional deadline-based straggler discarding;
- :class:`~repro.fl.schedulers.asynchronous.AsynchronousScheduler` --
  aggregate the first ``m`` arrivals (Algorithm 2);
- :class:`~repro.fl.schedulers.semi_sync.SemiSynchronousScheduler` --
  aggregate whoever arrives before a per-round deadline and carry
  stragglers over.

All three are event-driven over :class:`repro.simulation.clock.
SimulationClock`: a dispatched sub-model is an event that fires at
``dispatch_time + costs.total_s``, and :class:`DispatchQueue` orders
the outstanding events by that finish time.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.fl.config import FLConfig
from repro.fl.engine import Dispatch, Engine
from repro.fl.history import TrainingHistory


class Scheduler:
    """Base class for round schedulers."""

    name: str = "base"

    def run(self, engine: Engine) -> TrainingHistory:
        """Drive the engine to completion and return its history."""
        raise NotImplementedError


class DispatchQueue:
    """Outstanding dispatches as a min-heap of completion events.

    Each dispatch is one event firing at ``dispatch_time +
    costs.total_s``; popping the next arrival is O(log n) instead of
    the O(n log n) re-sort of the previous list-based queue, so
    event-driven rounds cost O(sampled) heap traffic rather than
    O(fleet) scans.  The heap is keyed ``(finish_time, insertion
    sequence)``; the sequence tiebreak reproduces the previous
    stable-sort order exactly, keeping event-driven runs bitwise
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
        """Remove and return the ``m`` earliest-finishing dispatches."""
        return [self._pop() for _ in range(min(m, len(self._outstanding)))]

    def pop_until(self, deadline: float) -> List[Dispatch]:
        """Remove and return every dispatch finishing at or before
        ``deadline``, earliest first."""
        arrivals = []
        while self._heap and self._heap[0][0] <= deadline:
            arrivals.append(self._pop())
        return arrivals


def make_scheduler(config: FLConfig) -> Scheduler:
    """Build the scheduler selected by ``config``.

    ``config.scheduler`` picks the rule explicitly; the default
    ``"auto"`` derives it from the legacy knobs (``async_m`` set ->
    asynchronous, ``semi_sync_deadline_s`` set -> semi-synchronous,
    otherwise synchronous), so pre-engine configs keep working.
    """
    from repro.fl.schedulers.asynchronous import AsynchronousScheduler
    from repro.fl.schedulers.semi_sync import SemiSynchronousScheduler
    from repro.fl.schedulers.sync import SynchronousScheduler

    name: Optional[str] = config.scheduler
    if name in (None, "auto"):
        if config.async_m is not None:
            name = "async"
        elif config.semi_sync_deadline_s is not None:
            name = "semi_sync"
        else:
            name = "sync"

    if name == "sync":
        return SynchronousScheduler()
    if name == "async":
        if config.async_m is None:
            raise ValueError(
                "scheduler='async' requires FLConfig.async_m to be set"
            )
        return AsynchronousScheduler(config.async_m)
    if name == "semi_sync":
        if config.semi_sync_deadline_s is None:
            raise ValueError(
                "scheduler='semi_sync' requires FLConfig.semi_sync_deadline_s"
            )
        return SemiSynchronousScheduler(config.semi_sync_deadline_s)
    raise ValueError(f"unknown scheduler {name!r}")
