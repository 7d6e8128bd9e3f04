"""Scheduler layer: semi-sync rounds, async record fix, deadline x churn."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.experiments import fleet
from repro.fl.config import FLConfig
from repro.fl.engine import Dispatch, Engine
from repro.fl.hooks import RoundHook
from repro.fl.runner import run_federated_training
from repro.fl.schedulers import (
    AsynchronousScheduler,
    DispatchQueue,
    SemiSynchronousScheduler,
    SynchronousScheduler,
    make_scheduler,
)
from repro.fl.tasks import ClassificationTask
from repro.runtime import executor as executor_module
from repro.simulation.cluster import make_scenario_devices
from repro.simulation.timing import RoundCosts


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def _config(**kwargs):
    base = dict(strategy="synfl", max_rounds=4, local_iterations=2,
                batch_size=8, lr=0.05, eval_every=2, seed=3)
    base.update(kwargs)
    return FLConfig(**base)


# ----------------------------------------------------------------------
# the event queue of the async / semi-sync schedulers
# ----------------------------------------------------------------------
def _dispatch(wid: int, finish: float) -> Dispatch:
    return Dispatch(worker_id=wid, ratio=0.0, cohort=None, tau=1,
                    costs=RoundCosts(computation_s=finish,
                                     download_s=0.0, upload_s=0.0))


def test_dispatch_queue_pops_by_finish_time_then_insertion_order():
    queue = DispatchQueue()
    for wid, finish in ((0, 3.0), (1, 1.0), (2, 2.0), (3, 1.0)):
        queue.add(_dispatch(wid, finish))
    with pytest.raises(ValueError, match="outstanding"):
        queue.add(_dispatch(2, 0.5))
    assert [d.worker_id for d in queue.pop_until(1.5)] == [1, 3]
    assert 1 not in queue and 2 in queue
    assert [d.worker_id for d in queue.pop_first(5)] == [2, 0]
    assert len(queue) == 0 and queue.pop_until(10.0) == []


# ----------------------------------------------------------------------
# scheduler selection
# ----------------------------------------------------------------------
def test_auto_selection_from_legacy_knobs():
    assert isinstance(make_scheduler(_config()), SynchronousScheduler)
    assert isinstance(make_scheduler(_config(async_m=4)),
                      AsynchronousScheduler)
    assert isinstance(make_scheduler(_config(semi_sync_deadline_s=5.0)),
                      SemiSynchronousScheduler)


def test_explicit_selection():
    scheduler = make_scheduler(
        _config(scheduler="semi_sync", semi_sync_deadline_s=2.5)
    )
    assert isinstance(scheduler, SemiSynchronousScheduler)
    assert scheduler.deadline_s == 2.5


def test_config_rejects_inconsistent_scheduling():
    with pytest.raises(ValueError):
        _config(scheduler="async")              # needs async_m
    with pytest.raises(ValueError):
        _config(scheduler="semi_sync")          # needs a deadline
    with pytest.raises(ValueError):
        _config(scheduler="sync", async_m=4)    # conflicting knobs
    with pytest.raises(ValueError):
        _config(async_m=4, semi_sync_deadline_s=1.0)
    with pytest.raises(ValueError):
        _config(semi_sync_deadline_s=-1.0)
    with pytest.raises(ValueError):
        _config(scheduler="bulk")
    with pytest.raises(ValueError, match="churn"):
        _config(async_m=4, churn_leave_prob=0.9)  # async ignores churn


# ----------------------------------------------------------------------
# semi-synchronous scheduling
# ----------------------------------------------------------------------
def test_semi_sync_carries_stragglers(task, devices):
    """A tight deadline leaves slow workers out of the round; their
    dispatches carry over instead of being discarded."""
    history = run_federated_training(
        task, devices,
        _config(semi_sync_deadline_s=6.0, max_rounds=5, jitter_sigma=0.0),
    )
    assert len(history.rounds) == 5
    assert history.final_metric() is not None
    carried = [record.carried_over for record in history.rounds]
    assert any(carried), "expected at least one round with stragglers"
    for record in history.rounds:
        # a carried-over worker did not contribute to this round
        assert not set(record.carried_over) & set(record.completion_times)
        # the round never stretches beyond the deadline while
        # stragglers remain
        if record.carried_over:
            assert record.round_time_s <= 6.0 + 1e-9


def test_semi_sync_stretches_when_nobody_arrives(task, devices):
    """A deadline shorter than every completion time still progresses:
    each round stretches to the earliest arrival."""
    history = run_federated_training(
        task, devices,
        _config(semi_sync_deadline_s=1e-3, max_rounds=3, jitter_sigma=0.0),
    )
    assert len(history.rounds) == 3
    for record in history.rounds:
        assert len(record.completion_times) >= 1
        assert record.round_time_s > 1e-3


def test_semi_sync_aggregates_everyone_given_slack(task, devices):
    """With a generous deadline the first round sees all workers."""
    history = run_federated_training(
        task, devices,
        _config(semi_sync_deadline_s=1e6, max_rounds=2),
    )
    assert len(history.rounds[0].completion_times) == len(devices)
    assert history.rounds[0].carried_over == []


def test_semi_sync_with_fedmp_and_weighted_aggregation(task, devices):
    """The new scheduler composes with E-UCB pruning and the weighted
    aggregator; non-IID shards give unequal sample counts."""
    non_iid = ClassificationTask(task.dataset, "cnn", non_iid_level=20.0)
    history = run_federated_training(
        non_iid, devices,
        _config(strategy="fedmp", sync_scheme="r2sp_weighted",
                semi_sync_deadline_s=6.0, max_rounds=5,
                strategy_kwargs={"warmup_rounds": 1}),
    )
    assert len(history.rounds) == 5
    assert history.final_metric() is not None
    # pruning ratios are being personalised within the deadline rounds
    later = [r for r in history.rounds[1:] if len(r.ratios) > 1]
    assert later


def test_semi_sync_survives_churn(task, devices):
    history = run_federated_training(
        task, devices,
        _config(semi_sync_deadline_s=6.0, max_rounds=6,
                churn_leave_prob=0.4, churn_rejoin_after=1),
    )
    assert len(history.rounds) == 6
    assert history.final_metric() is not None


# ----------------------------------------------------------------------
# async record regression (the ratios-of-the-next-round bug)
# ----------------------------------------------------------------------
def test_async_records_aggregated_ratios_not_next_round(task, devices):
    """Round r's record must report the ratios of the sub-models that
    were actually aggregated, not the freshly re-dispatched ones.  With
    a one-round warm-up every round-0 arrival trained an unpruned model
    (ratio 0), while the round-1 re-dispatches already carry non-zero
    ratios -- the old runner recorded those by mistake."""
    history = run_federated_training(
        task, devices,
        _config(strategy="fedmp", async_m=4, max_rounds=4,
                strategy_kwargs={"warmup_rounds": 1}),
    )
    first = history.rounds[0]
    assert len(first.ratios) == 4
    assert all(ratio == 0.0 for ratio in first.ratios.values())
    # recorded ratios always describe the arrivals that were aggregated
    for record in history.rounds:
        assert set(record.ratios) == set(record.completion_times)


# ----------------------------------------------------------------------
# deadline policy x churn interaction
# ----------------------------------------------------------------------
class AggregationAudit(RoundHook):
    """Captures which workers' contributions each round aggregated."""

    def __init__(self):
        self.aggregated = {}

    def on_aggregate(self, round_index, contributions):
        self.aggregated[round_index] = [
            contribution.worker_id for contribution in contributions
        ]


def test_deadline_policy_with_churn_aggregates_present_accepted(
        task, devices):
    """Deadline discarding over a churning membership must aggregate
    exactly the accepted, present workers -- and never KeyError on a
    churned-out worker."""
    audit = AggregationAudit()
    history = run_federated_training(
        task, devices,
        _config(max_rounds=6, deadline_quorum=0.5, deadline_multiplier=1.0,
                jitter_sigma=0.3, churn_leave_prob=0.4,
                churn_rejoin_after=1),
        hooks=[audit],
    )
    assert len(history.rounds) == 6
    all_ids = {device.device_id for device in devices}
    churn_seen = False
    for record in history.rounds:
        participants = set(record.completion_times)
        churn_seen = churn_seen or len(participants) < len(all_ids)
        aggregated = set(audit.aggregated[record.round_index])
        # aggregated == dispatched minus deadline-discarded, all present
        assert aggregated == participants - set(record.discarded)
        assert aggregated <= all_ids
        assert aggregated
    assert churn_seen, "churn never removed a worker; test is vacuous"


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_a_round_frees_its_cohort_blocks_before_the_next_round_trains(
        monkeypatch, scheduler):
    """Trained states are row views of their cohort's stacked parameter
    blocks; once a round has aggregated and observed its losses, the
    loop must hold nothing that pins them while the next round trains."""
    blocks = []
    train_cohort = executor_module.train_cohort

    def recording(*args, **kwargs):
        states, losses = train_cohort(*args, **kwargs)
        block = next(iter(states[0].values())).base
        assert block is not None
        blocks.append(weakref.ref(block))
        return states, losses

    monkeypatch.setattr(executor_module, "train_cohort", recording)
    extra = {"async_m": 8} if scheduler == "async" else {}
    engine = Engine(fleet.make_task(), fleet.make_fleet(200), FLConfig(
        strategy="fixed", strategy_kwargs={"ratio": 0.3}, max_rounds=4,
        local_iterations=2, batch_size=8, eval_every=10, seed=7,
        clients_per_round=8, scheduler=scheduler, **extra))
    alive_at_start = []
    run_round = engine.executor.run_round

    def checking(requests, round_index):
        alive_at_start.append(sum(ref() is not None for ref in blocks))
        return run_round(requests, round_index)

    engine.executor.run_round = checking
    try:
        make_scheduler(engine.config).run(engine)
    finally:
        engine.close()
    assert len(blocks) >= 4
    assert alive_at_start == [0] * len(alive_at_start)


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_no_trained_state_outlives_its_round(scheduler):
    """The engine hands each raw trained state to the contribution hooks
    and keeps none: when the next round dispatches or trains, every
    state an earlier round trained is dead (the round's ``Collected``
    holds its dispatches until the next collect returns)."""
    extra = {"async_m": 8} if scheduler == "async" else {}
    engine = Engine(fleet.make_task(), fleet.make_fleet(200), FLConfig(
        strategy="fixed", strategy_kwargs={"ratio": 0.3}, max_rounds=4,
        local_iterations=2, batch_size=8, eval_every=10, seed=7,
        clients_per_round=8, scheduler=scheduler, **extra))
    states, alive = [], []
    run_round = engine.executor.run_round
    dispatch_many = engine.dispatch_many

    def training(requests, round_index):
        alive.append(sum(ref() is not None for ref in states))
        batches = run_round(requests, round_index)
        states.extend(weakref.ref(array) for batch in batches
                      for result in batch
                      for array in result.sub_state.values())
        return batches

    def dispatching(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in states))
        return dispatch_many(*args, **kwargs)

    engine.executor.run_round = training
    engine.dispatch_many = dispatching
    try:
        make_scheduler(engine.config).run(engine)
    finally:
        engine.close()
    assert len(states) >= 4 and len(alive) >= 8
    assert alive == [0] * len(alive)
