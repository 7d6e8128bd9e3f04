"""Synchronous scheduling: one barrier per round (Fig. 1 / Eq. 6).

Every present worker receives a personalised sub-model, the round lasts
until the slowest accepted worker finishes, and all accepted
contributions are aggregated together, in dispatch order.  With a
:class:`~repro.simulation.faults.DeadlinePolicy` configured
(``FLConfig.deadline_quorum``), stragglers past the deadline are
discarded from the round instead of stretching it.  Nothing stays in
flight between rounds, so the rule keeps no queue.
"""

from __future__ import annotations

import time

from repro.fl.aggregation import EmptyRoundError
from repro.fl.schedulers.base import Collected, Scheduler


class SynchronousScheduler(Scheduler):
    """Barrier rounds with optional deadline-based straggler discard."""

    name = "sync"

    def collect(self, engine, queue, round_index, span) -> Collected:
        present = engine.present_workers(round_index)
        if not present:
            raise EmptyRoundError(
                f"round {round_index}: no workers are present"
            )
        sampled = engine.sample_clients(present, round_index)
        span.set("present", len(present))
        span.set("sampled", len(sampled))
        overhead_start = time.perf_counter()
        ratios, dispatches = self.dispatch(engine, sampled, round_index)
        overhead_s = time.perf_counter() - overhead_start

        times = {
            wid: dispatch.costs.total_s
            for wid, dispatch in dispatches.items()
        }
        if engine.deadline_policy is not None and len(times) > 1:
            outcome = engine.deadline_policy.apply(times)
            accepted, discarded = outcome.accepted, outcome.discarded
            round_time = outcome.round_time_s
        else:
            accepted, discarded = list(times), []
            round_time = max(times.values())
        engine.clock.advance(round_time)
        return Collected(
            arrivals=[dispatches[wid] for wid in accepted],
            round_time_s=round_time, ratios=ratios, times=times,
            dispatches=dispatches, discarded=discarded,
            overhead_s=overhead_s,
        )
