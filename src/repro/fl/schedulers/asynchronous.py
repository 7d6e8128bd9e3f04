"""Asynchronous scheduling: aggregate the first ``m`` arrivals
(Algorithm 2).

Every worker always has an outstanding dispatch; the PS wakes up when
the ``m``-th earliest one finishes, aggregates exactly those ``m``
contributions, and immediately re-dispatches fresh sub-models to the
workers that just arrived.  Slow workers keep training across several
global rounds instead of blocking them.
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


class AsynchronousScheduler(Scheduler):
    """First-``m``-arrivals aggregation (the paper's asynchronous FedMP)."""

    name = "async"

    def __init__(self, m: int) -> None:
        if m <= 0:
            raise ValueError(f"async m must be positive, got {m}")
        self.m = m

    def run(self, engine: Engine) -> TrainingHistory:
        config = engine.config
        m = self.m
        resume = engine.take_resume(self.name)
        if resume is not None:
            # the bootstrap already ran in the original process: the
            # checkpoint carries its in-flight dispatches and every RNG
            # stream at its post-bootstrap position
            outstanding = resume["queue"]
            if outstanding is None:
                raise CheckpointError(
                    "async checkpoint is missing its dispatch queue"
                )
            start_round = resume["next_round"]
        else:
            start_round = 0
            # with client sampling only the bootstrap sample keeps
            # cycling through dispatch -> arrival -> re-dispatch, so the
            # first-m rule must fit inside the sample, not just the fleet
            # (under a live roster, only workers actually present at
            # round 0 can be dispatched to)
            candidates = (
                engine.present_workers(0)
                if engine.membership_provider is not None
                else engine.worker_ids
            )
            pool = engine.sample_clients(candidates, 0)
            if m > len(pool):
                raise ValueError(
                    f"async_m={m} exceeds the number of participating "
                    f"workers ({len(pool)})"
                )
            outstanding = DispatchQueue()
            with engine.telemetry.span("decide", round=0, bootstrap=True,
                                       workers=len(pool)):
                initial_ratios = engine.strategy.select_ratios(
                    0, worker_ids=pool
                )
            for dispatch in engine.dispatch_many(
                initial_ratios, engine.clock.now, 0
            ).values():
                outstanding.add(dispatch)

        for round_index in range(start_round, config.max_rounds):
            with engine.telemetry.span("round", round=round_index,
                                       scheduler=self.name) as round_span:
                arrivals = outstanding.pop_first(m)
                if not arrivals:
                    # every in-flight dispatch was discarded by live
                    # leaves: nothing can ever arrive again
                    raise EmptyRoundError(
                        f"round {round_index}: the dispatch queue is "
                        f"empty -- all in-flight workers left"
                    )
                round_span.set("arrivals", len(arrivals))
                round_span.set("outstanding", len(outstanding))
                now = arrivals[-1].finish_time
                previous_now = engine.clock.now
                engine.clock.advance_to(max(now, previous_now))

                trained = engine.train_all(arrivals, round_index)
                contributions = [contribution for contribution, _ in trained]
                train_losses = [loss for _, loss in trained]
                costs: Dict[int, RoundCosts] = {}
                # the ratios actually aggregated this round -- recorded
                # before re-dispatch overwrites the workers' assignments
                arrival_ratios: Dict[int, float] = {}
                for dispatch in arrivals:
                    costs[dispatch.worker_id] = dispatch.costs
                    arrival_ratios[dispatch.worker_id] = dispatch.ratio
                engine.aggregate(contributions, round_index)

                mean_train_loss = float(np.mean(train_losses))
                delta_loss = engine.delta_loss(mean_train_loss)
                engine.strategy.observe_round(RoundObservation(
                    round_index=round_index, costs=costs,
                    delta_loss=delta_loss,
                ))

                arrived_ids = sorted(costs)
                overhead_start = time.perf_counter()
                if engine.membership_provider is not None:
                    # live roster: arrived workers that left are not
                    # re-dispatched; joiners (present, nothing in
                    # flight) enter the cycle here
                    present = set(
                        engine.present_workers(round_index + 1)
                    )
                    redispatch_ids = sorted(
                        wid for wid in engine.worker_ids
                        if wid in present and wid not in outstanding
                    )
                else:
                    redispatch_ids = arrived_ids
                with engine.telemetry.span("decide", round=round_index + 1,
                                           workers=len(redispatch_ids)):
                    new_ratios = engine.strategy.select_ratios(
                        round_index + 1, worker_ids=redispatch_ids
                    )
                for dispatch in engine.dispatch_many(
                    new_ratios, engine.clock.now, round_index + 1
                ).values():
                    outstanding.add(dispatch)
                overhead_s = time.perf_counter() - overhead_start

                is_last = round_index == config.max_rounds - 1
                metric, eval_loss = engine.evaluate(round_index,
                                                    force=is_last)
                ratios_rec, times_rec, cohorts_rec = engine.round_detail(
                    {wid: arrival_ratios[wid] for wid in arrived_ids},
                    {wid: cost.total_s for wid, cost in costs.items()},
                    {d.worker_id: d for d in arrivals},
                )
                record = RoundRecord(
                    round_index=round_index, sim_time_s=engine.clock.now,
                    round_time_s=engine.clock.now - previous_now,
                    metric=metric, eval_loss=eval_loss,
                    train_loss=mean_train_loss,
                    ratios=ratios_rec, completion_times=times_rec,
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
