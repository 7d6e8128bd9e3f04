"""Semi-synchronous scheduling: per-round deadlines with carry-over.

A middle ground between the barrier (sync) and first-``m`` (async)
rules: each round the PS waits a fixed simulated budget
(``FLConfig.semi_sync_deadline_s``) and aggregates **whoever has
arrived by then**.  Stragglers are neither waited for (sync) nor
discarded (the deadline policy): their outstanding dispatches simply
carry over, and their contributions land in a later round.  If nobody
makes the deadline, the round stretches to the earliest arrival so
progress is always made.

Workers that arrived are immediately re-dispatched (subject to the
churn model), so like the asynchronous rule every healthy worker is
almost always training; unlike it, the round length is bounded by the
deadline rather than by arrival counts.
"""

from __future__ import annotations

from repro.fl.schedulers.base import (
    Collected,
    DispatchQueue,
    Scheduler,
    arrived,
)


class SemiSynchronousScheduler(Scheduler):
    """Aggregate arrivals before a per-round deadline; carry stragglers."""

    name = "semi_sync"
    queued = True

    def __init__(self, deadline_s: float) -> None:
        if deadline_s <= 0:
            raise ValueError(
                f"semi-sync deadline must be positive, got {deadline_s}"
            )
        self.deadline_s = deadline_s

    def bootstrap(self, engine) -> DispatchQueue:
        queue = DispatchQueue()
        self.enqueue(engine, queue,
                     engine.sample_clients(engine.present_workers(0), 0),
                     0, bootstrap=True)
        return queue

    def collect(self, engine, queue, round_index, span) -> Collected:
        start = engine.clock.now
        deadline = start + self.deadline_s
        # nobody made the deadline: stretch to the next arrival
        arrivals = queue.pop_until(deadline) or queue.pop_first(1)
        last = arrivals[-1].finish_time
        # while stragglers remain, the PS waits the full budget
        round_end = max(last, deadline) if len(queue) else last
        engine.clock.advance_to(max(round_end, start))
        return arrived(arrivals, engine.clock.now - start,
                       times_in_arrival_order=False,
                       carried_over=queue.worker_ids)

    def refill(self, engine, queue, collected, next_round, span) -> None:
        # every idle worker that is present: arrived workers, plus
        # churned-out workers that have rejoined
        present = engine.present_workers(next_round)
        present_ids = set(present)
        idle = engine.sample_clients(
            [wid for wid in engine.worker_ids
             if wid not in queue and wid in present_ids],
            next_round,
        )
        span.set("present", len(present))
        span.set("sampled", len(idle))
        span.set("arrivals", len(collected.arrivals))
        span.set("carried_over", len(collected.carried_over))
        if idle:
            self.enqueue(engine, queue, idle, next_round)
