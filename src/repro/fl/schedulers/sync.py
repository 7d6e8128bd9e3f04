"""Synchronous scheduling: one barrier per round (Fig. 1 / Eq. 6).

Every present worker receives a personalised sub-model, the round lasts
until the slowest accepted worker finishes, and all accepted
contributions are aggregated together.  With a
:class:`~repro.simulation.faults.DeadlinePolicy` configured
(``FLConfig.deadline_quorum``), stragglers past the deadline are
discarded from the round instead of stretching it.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.fl.aggregation import EmptyRoundError
from repro.fl.engine import Engine
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.schedulers.base import Scheduler
from repro.fl.strategies.base import RoundObservation


class SynchronousScheduler(Scheduler):
    """Barrier rounds with optional deadline-based straggler discard."""

    name = "sync"

    def run(self, engine: Engine) -> TrainingHistory:
        config = engine.config
        resume = engine.take_resume(self.name)
        start_round = resume["next_round"] if resume is not None else 0
        for round_index in range(start_round, config.max_rounds):
            with engine.telemetry.span("round", round=round_index,
                                       scheduler=self.name) as round_span:
                present = engine.present_workers(round_index)
                if not present:
                    raise EmptyRoundError(
                        f"round {round_index}: no workers are present"
                    )
                sampled = engine.sample_clients(present, round_index)
                round_span.set("present", len(present))
                round_span.set("sampled", len(sampled))
                overhead_start = time.perf_counter()
                with engine.telemetry.span("decide", round=round_index,
                                           workers=len(sampled)):
                    ratios = engine.strategy.select_ratios(
                        round_index, worker_ids=sampled
                    )
                dispatches = engine.dispatch_many(
                    ratios, engine.clock.now, round_index
                )
                overhead_s = time.perf_counter() - overhead_start

                times = {
                    wid: dispatch.costs.total_s
                    for wid, dispatch in dispatches.items()
                }
                if engine.deadline_policy is not None and len(times) > 1:
                    outcome = engine.deadline_policy.apply(times)
                    accepted_ids = outcome.accepted
                    discarded = outcome.discarded
                    round_time = outcome.round_time_s
                else:
                    accepted_ids = list(times)
                    discarded = []
                    round_time = max(times.values())

                trained = engine.train_all(
                    [dispatches[wid] for wid in accepted_ids], round_index
                )
                contributions = [contribution for contribution, _ in trained]
                train_losses = [loss for _, loss in trained]
                engine.aggregate(contributions, round_index)

                engine.clock.advance(round_time)
                mean_train_loss = float(np.mean(train_losses))
                delta_loss = engine.delta_loss(mean_train_loss)
                engine.strategy.observe_round(RoundObservation(
                    round_index=round_index,
                    costs={wid: dispatches[wid].costs
                           for wid in accepted_ids},
                    delta_loss=delta_loss,
                    discarded=discarded,
                ))

                is_last = round_index == config.max_rounds - 1
                metric, eval_loss = engine.evaluate(round_index,
                                                    force=is_last)
                ratios_rec, times_rec, cohorts_rec = engine.round_detail(
                    ratios, times, dispatches
                )
                record = RoundRecord(
                    round_index=round_index, sim_time_s=engine.clock.now,
                    round_time_s=round_time, metric=metric,
                    eval_loss=eval_loss, train_loss=mean_train_loss,
                    ratios=ratios_rec, completion_times=times_rec,
                    discarded=discarded, overhead_s=overhead_s,
                    cohorts=cohorts_rec,
                )
                engine.finish_round(record)
                round_span.set("sim_time_s", engine.clock.now)
                round_span.set("round_time_s", round_time)
            stop = engine.should_stop(record)
            engine.maybe_checkpoint(self.name, round_index + 1, stop=stop)
            if stop or engine.interrupt_requested:
                break
        return engine.history
