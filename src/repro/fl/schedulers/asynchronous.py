"""Asynchronous scheduling: aggregate the first ``m`` arrivals
(Algorithm 2).

Every worker always has an outstanding dispatch; the PS wakes up when
the ``m``-th earliest one finishes, aggregates exactly those ``m``
contributions, and immediately re-dispatches fresh sub-models to the
workers that just arrived.  Slow workers keep training across several
global rounds instead of blocking them.
"""

from __future__ import annotations

from repro.fl.schedulers.base import (
    Collected,
    DispatchQueue,
    Scheduler,
    arrived,
)


class AsynchronousScheduler(Scheduler):
    """First-``m``-arrivals aggregation (the paper's asynchronous FedMP)."""

    name = "async"
    queued = True

    def __init__(self, m: int) -> None:
        if m <= 0:
            raise ValueError(f"async m must be positive, got {m}")
        self.m = m

    def bootstrap(self, engine) -> DispatchQueue:
        # with client sampling only the bootstrap sample keeps cycling
        # through dispatch -> arrival -> re-dispatch, so the first-m
        # rule must fit inside the sample, not just the fleet
        pool = engine.sample_clients(engine.present_workers(0), 0)
        if self.m > len(pool):
            raise ValueError(
                f"async_m={self.m} exceeds the number of participating "
                f"workers ({len(pool)})"
            )
        queue = DispatchQueue()
        self.enqueue(engine, queue, pool, 0, bootstrap=True)
        return queue

    def collect(self, engine, queue, round_index, span) -> Collected:
        arrivals = queue.pop_first(self.m)
        span.set("arrivals", len(arrivals))
        span.set("outstanding", len(queue))
        start = engine.clock.now
        engine.clock.advance_to(max(arrivals[-1].finish_time, start))
        return arrived(arrivals, engine.clock.now - start,
                       times_in_arrival_order=True)

    def refill(self, engine, queue, collected, next_round, span) -> None:
        if engine.membership_provider is not None:
            # live roster: arrived workers that left are not
            # re-dispatched; joiners (present, nothing in flight) enter
            # the cycle here
            present = set(engine.present_workers(next_round))
            ids = [wid for wid in engine.worker_ids
                   if wid in present and wid not in queue]
        else:
            ids = sorted(d.worker_id for d in collected.arrivals)
        self.enqueue(engine, queue, ids, next_round)
