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

import time
from typing import Dict

import numpy as np

from repro.fl.aggregation import EmptyRoundError
from repro.fl.checkpoint import CheckpointError
from repro.fl.engine import Engine
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.schedulers.base import DispatchQueue, Scheduler
from repro.fl.strategies.base import RoundObservation
from repro.simulation.timing import RoundCosts


class SemiSynchronousScheduler(Scheduler):
    """Aggregate arrivals before a per-round deadline; carry stragglers."""

    name = "semi_sync"

    def __init__(self, deadline_s: float) -> None:
        if deadline_s <= 0:
            raise ValueError(
                f"semi-sync deadline must be positive, got {deadline_s}"
            )
        self.deadline_s = deadline_s

    def run(self, engine: Engine) -> TrainingHistory:
        config = engine.config
        resume = engine.take_resume(self.name)
        if resume is not None:
            # bootstrap already ran originally; the checkpoint carries
            # the in-flight dispatches (including carried-over
            # stragglers) and post-bootstrap RNG positions
            outstanding = resume["queue"]
            if outstanding is None:
                raise CheckpointError(
                    "semi-sync checkpoint is missing its dispatch queue"
                )
            start_round = resume["next_round"]
        else:
            start_round = 0
            outstanding = DispatchQueue()
            present = engine.present_workers(0)
            sampled = engine.sample_clients(present, 0)
            with engine.telemetry.span("decide", round=0, bootstrap=True,
                                       workers=len(sampled)):
                initial_ratios = engine.strategy.select_ratios(
                    0, worker_ids=sampled
                )
            for dispatch in engine.dispatch_many(
                initial_ratios, engine.clock.now, 0
            ).values():
                outstanding.add(dispatch)

        for round_index in range(start_round, config.max_rounds):
            with engine.telemetry.span("round", round=round_index,
                                       scheduler=self.name) as round_span:
                previous_now = engine.clock.now
                deadline = previous_now + self.deadline_s
                arrivals = outstanding.pop_until(deadline)
                if arrivals:
                    if len(outstanding) > 0:
                        # stragglers remain: the PS waits the full budget
                        round_end = deadline
                    else:
                        round_end = max(d.finish_time for d in arrivals)
                else:
                    # nobody made the deadline; stretch to the next arrival
                    if len(outstanding) == 0:
                        raise EmptyRoundError(
                            f"round {round_index}: the dispatch queue "
                            f"is empty -- all in-flight workers left"
                        )
                    arrivals = outstanding.pop_first(1)
                    round_end = arrivals[-1].finish_time
                engine.clock.advance_to(max(round_end, previous_now))

                trained = engine.train_all(arrivals, round_index)
                contributions = [contribution for contribution, _ in trained]
                train_losses = [loss for _, loss in trained]
                costs: Dict[int, RoundCosts] = {}
                arrival_ratios: Dict[int, float] = {}
                for dispatch in arrivals:
                    costs[dispatch.worker_id] = dispatch.costs
                    arrival_ratios[dispatch.worker_id] = dispatch.ratio
                engine.aggregate(contributions, round_index)
                carried_over = outstanding.worker_ids

                mean_train_loss = float(np.mean(train_losses))
                delta_loss = engine.delta_loss(mean_train_loss)
                engine.strategy.observe_round(RoundObservation(
                    round_index=round_index, costs=costs,
                    delta_loss=delta_loss, carried_over=carried_over,
                ))

                # re-dispatch to every idle worker that is present
                # (arrived workers, plus churned-out workers that have
                # rejoined)
                overhead_start = time.perf_counter()
                present = engine.present_workers(round_index + 1)
                idle = [
                    wid for wid in engine.worker_ids
                    if wid not in outstanding and wid in set(present)
                ]
                idle = engine.sample_clients(idle, round_index + 1)
                round_span.set("present", len(present))
                round_span.set("sampled", len(idle))
                round_span.set("arrivals", len(arrivals))
                round_span.set("carried_over", len(carried_over))
                if idle:
                    with engine.telemetry.span("decide",
                                               round=round_index + 1,
                                               workers=len(idle)):
                        new_ratios = engine.strategy.select_ratios(
                            round_index + 1, worker_ids=idle
                        )
                    for dispatch in engine.dispatch_many(
                        new_ratios, engine.clock.now, round_index + 1
                    ).values():
                        outstanding.add(dispatch)
                overhead_s = time.perf_counter() - overhead_start

                is_last = round_index == config.max_rounds - 1
                metric, eval_loss = engine.evaluate(round_index,
                                                    force=is_last)
                arrived_ids = sorted(costs)
                ratios_rec, times_rec, cohorts_rec = engine.round_detail(
                    {wid: arrival_ratios[wid] for wid in arrived_ids},
                    {wid: costs[wid].total_s for wid in arrived_ids},
                    {d.worker_id: d for d in arrivals},
                )
                record = RoundRecord(
                    round_index=round_index, sim_time_s=engine.clock.now,
                    round_time_s=engine.clock.now - previous_now,
                    metric=metric, eval_loss=eval_loss,
                    train_loss=mean_train_loss,
                    ratios=ratios_rec, completion_times=times_rec,
                    carried_over=carried_over,
                    overhead_s=overhead_s, cohorts=cohorts_rec,
                )
                engine.finish_round(record)
                round_span.set("sim_time_s", engine.clock.now)
                round_span.set("round_time_s", record.round_time_s)
            stop = engine.should_stop(record)
            engine.maybe_checkpoint(self.name, round_index + 1,
                                    queue=outstanding, stop=stop)
            if stop or engine.interrupt_requested:
                break
        return engine.history
