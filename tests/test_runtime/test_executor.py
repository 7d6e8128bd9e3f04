"""Executor seam: serial-vs-process parity, telemetry, straggler wiring.

The headline guarantee (ISSUE 5 / DESIGN.md 3.5): process-pool
execution is bitwise identical -- 0 ULPs -- to inline serial execution
under the same seed, across schedulers and model families, with
byte-identical normalised history JSON.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_cifar10, make_synthetic_mnist
from repro.data.text import make_synthetic_ptb
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask, LanguageModelTask
from repro.runtime.codec import (
    DispatchPayload,
    TrainHyper,
    decode_dispatch,
    encode_contribution,
    encode_dispatch,
)
from repro.runtime.executor import (
    CohortTrainRequest,
    RemoteExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runtime.pool import InFlight, ProcessPool
from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    TransportTimeoutError,
)
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import LayerProfiler
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import Tracer
from tests.support.differential import differential_serial_vs_process
from tests.support.receivers import slow_receivers
from tests.support.telemetry import ListSink


@pytest.fixture(scope="module")
def mnist():
    return make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices({"A": 2, "B": 2}, np.random.default_rng(7))


def _config(**overrides) -> FLConfig:
    base = dict(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                max_rounds=3, local_iterations=2, batch_size=8, lr=0.05,
                eval_every=3, seed=11)
    base.update(overrides)
    return FLConfig(**base)


def _specs(engine):
    """Every worker's spec, in fleet order (builds no worker)."""
    return [engine.workers.spec(wid) for wid in engine.worker_ids]


def _counter_sum(metrics: MetricsRegistry, name: str, **labels) -> float:
    return sum(
        counter.value for counter in metrics.counters
        if counter.name == name and all(
            str(counter.labels.get(key)) == str(value)
            for key, value in labels.items()
        )
    )


# ----------------------------------------------------------------------
# bitwise parity, per scheduler and model family
# ----------------------------------------------------------------------
def test_parity_sync_fedmp(mnist, devices):
    factory = lambda: ClassificationTask(mnist, "cnn")  # noqa: E731
    config = _config(strategy="fedmp", sync_scheme="r2sp",
                     strategy_kwargs={"warmup_rounds": 1})
    report, histories_match = differential_serial_vs_process(
        factory, devices, config, tolerance_ulps=0, num_procs=2,
    )
    assert report.passed, report.describe()
    assert report.max_ulps == 0
    assert histories_match


def test_parity_async_scheduler(mnist, devices):
    """The second shape is the benchmark's (``cnn_async_process``):
    every aggregation re-dispatches five workers, which cross the
    2-process pool as one multi-flight wave."""
    factory = lambda: ClassificationTask(mnist, "cnn")  # noqa: E731
    benchmark_fleet = make_scenario_devices({"A": 5, "B": 5},
                                            np.random.default_rng(7))
    for fleet, async_m in ((devices, 2), (benchmark_fleet, 5)):
        config = _config(scheduler="async", async_m=async_m)
        report, histories_match = differential_serial_vs_process(
            factory, fleet, config, tolerance_ulps=0, num_procs=2,
        )
        assert report.passed, report.describe()
        assert histories_match


def test_parity_semi_sync_scheduler(mnist, devices):
    factory = lambda: ClassificationTask(mnist, "cnn")  # noqa: E731
    config = _config(scheduler="semi_sync", semi_sync_deadline_s=1e12,
                     max_rounds=2)
    report, histories_match = differential_serial_vs_process(
        factory, devices, config, tolerance_ulps=0, num_procs=2,
    )
    assert report.passed, report.describe()
    assert histories_match


def test_parity_dropout_model_ships_rng_record(devices):
    """alexnet carries RNG-bearing Dropout modules: each dispatch frame
    must put the child-derived sub-model's generators where the
    parent's extraction left them -- and parity must still hold."""
    cifar = make_synthetic_cifar10(train_per_class=6, test_per_class=2,
                                   rng=np.random.default_rng(1))

    def factory():
        return ClassificationTask(
            cifar, "alexnet",
            model_kwargs={"width_mult": 0.125, "dropout": 0.1},
        )

    config = _config(max_rounds=2, local_iterations=1, batch_size=4)
    probe = Engine(factory(), devices, config)
    try:
        assert probe._has_rng_modules
    finally:
        probe.close()
    # a Dropout model makes every worker a cohort of one, so a sync
    # round is one wave of RNG-bearing flights; under E-UCB each of
    # them also carries a plan of its own
    for strategy in (
        {},
        {"strategy": "fedmp", "strategy_kwargs": {"warmup_rounds": 1}},
    ):
        report, histories_match = differential_serial_vs_process(
            factory, devices, replace(config, **strategy),
            tolerance_ulps=0, num_procs=2,
        )
        assert report.passed, report.describe()
        assert histories_match


def test_parity_lstm_sequence_iterators(devices):
    """The pool child must rebuild the sequence-iterator family for the
    language-model task, not just the batch iterator."""
    corpus = make_synthetic_ptb(vocab_size=50, train_tokens=2_000,
                                valid_tokens=200, test_tokens=200,
                                rng=np.random.default_rng(2))

    def factory():
        return LanguageModelTask(
            corpus, seq_len=8, lm_batch_size=4,
            model_kwargs={"embedding_dim": 8, "hidden_size": 12},
        )

    config = _config(max_rounds=2, local_iterations=1, batch_size=4)
    report, histories_match = differential_serial_vs_process(
        factory, devices, config, tolerance_ulps=0, num_procs=2,
    )
    assert report.passed, report.describe()
    assert histories_match


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
def test_process_run_emits_spans_and_counters(mnist, devices):
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink=sink),
                          metrics=MetricsRegistry())
    task = ClassificationTask(mnist, "cnn")
    config = _config(executor="process", num_procs=2)
    engine = Engine(task, devices, config, telemetry=telemetry)
    try:
        assert isinstance(engine.executor, RemoteExecutor)
        assert engine.executor.name == "process"
        assert engine.executor.run([]) == []
        make_scheduler(config).run(engine)

        metrics = telemetry.metrics
        assert _counter_sum(metrics, "wire_bytes_total",
                            kind="dispatch") > 0
        assert _counter_sum(metrics, "wire_bytes_total",
                            kind="contribution") > 0
        assert _counter_sum(metrics, "wire_bytes_total",
                            kind="template") == 0
        # quorum 0.85 over 4 workers anchors the deadline at the last
        # arrival, so the heartbeat cannot misfire here
        assert engine.executor.last_stragglers == []

        assert sink.spans("parallel_train")
        assert sink.spans("serialize")
        transfers = sink.spans("transfer")
        assert transfers
        assert all(span["attrs"]["reply_bytes"] > 0 for span in transfers)
        trains = sink.spans("local_train")
        assert len(trains) == config.max_rounds * len(devices)
        assert all("train_loss" in span["attrs"] for span in trains)
        assert all("worker_wall_s" in span["attrs"] for span in trains)
    finally:
        engine.close()
    assert all(not member.proc.is_alive()
               for member in engine.executor.link.members)


def _hyper(config: FLConfig) -> TrainHyper:
    return TrainHyper(lr=config.lr, momentum=config.momentum,
                      weight_decay=config.weight_decay,
                      prox_mu=0.0, clip_norm=config.clip_norm)


def _member_requests(engine: Engine, worker_ids) -> list:
    """One member flight per worker id, in their order."""
    dispatches = engine.dispatch_many(
        {worker_id: 0.3 for worker_id in worker_ids}, 0.0, round_index=0,
    )
    return [
        DispatchPayload(
            worker_id=d.worker_id, tau=d.tau, hyper=_hyper(engine.config),
            plan=d.plan, state=d.dispatched_state,
            module_rngs=d.cohort.template.rng_states(),
        )
        for d in (dispatches[worker_id] for worker_id in worker_ids)
    ]


def test_straggler_heartbeat_flags_slow_member(mnist, devices,
                                              monkeypatch):
    """A slow outlier (a receiver that sleeps first) must be flagged,
    counted and surfaced as an event -- without affecting results."""
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink=sink),
                          metrics=MetricsRegistry())
    task = ClassificationTask(mnist, "cnn")
    config = _config(max_rounds=1)
    engine = Engine(task, devices, config)
    slow_id = engine.worker_ids[-1]
    delays = slow_receivers(monkeypatch, engine.worker_ids, 0.05)
    delays[slow_id] = 0.8
    executor = RemoteExecutor(
        ProcessPool(_specs(engine), num_procs=4,
                    skeleton=engine.model), engine.workers,
        telemetry=telemetry, straggler_quorum=0.75,
        straggler_multiplier=1.5,
    )
    try:
        results = executor.run(_member_requests(engine, engine.worker_ids),
                               round_index=0)
        assert [r.worker_id for r in results] == engine.worker_ids
        assert executor.last_stragglers == [slow_id]
        assert _counter_sum(telemetry.metrics, "stragglers_total",
                            executor="process") == 1
        events = sink.events("straggler_detected")
        assert events and events[0]["attrs"]["workers"] == [slow_id]
        # an empty batch has no stragglers: the flags do not linger
        assert executor.run([]) == []
        assert executor.last_stragglers == []
    finally:
        executor.close()
        engine.close()


def test_straggler_heartbeat_times_the_worker_not_its_queue_slot(
        mnist, monkeypatch):
    """Four flights share two children, so two of them wait in the
    queue.  Equal-cost workers flag nobody however late in the queue
    they ran, and a genuinely slow one is flagged at the head and at
    the tail."""
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink=sink),
                          metrics=MetricsRegistry())
    fleet = make_scenario_devices({"A": 3, "B": 3}, np.random.default_rng(7))
    engine = Engine(ClassificationTask(mnist, "cnn"), fleet,
                    _config(max_rounds=1))
    delays = slow_receivers(monkeypatch, engine.worker_ids)
    pool = ProcessPool(_specs(engine), num_procs=2,
                       skeleton=engine.model)
    executor = RemoteExecutor(pool, engine.workers, telemetry=telemetry,
                              straggler_quorum=0.5,
                              straggler_multiplier=2.0)
    try:
        order = engine.worker_ids[:4]

        def flagged(slow=None):
            for worker_id in order:
                delays[worker_id] = 0.8 if worker_id == slow else 0.2
            executor.run(_member_requests(engine, order))
            return executor.last_stragglers

        assert flagged() == []
        assert flagged(slow=order[0]) == [order[0]]
        assert flagged(slow=order[-1]) == [order[-1]]

        # the same stamps give the pool's occupancy since the previous
        # collect: with one queue, equal flights keep both children busy
        shares = [span["attrs"]["pool_busy_share"]
                  for span in sink.spans("transfer")]
        assert len(shares) == 3
        assert shares[0] > 0.8
        assert all(0.0 < share <= 1.0 for share in shares)
        gauge = [g for g in telemetry.metrics.gauges
                 if g.name == "pool_busy_share"]
        assert len(gauge) == 1 and gauge[0].value == shares[-1]
    finally:
        executor.close()
        engine.close()


# ----------------------------------------------------------------------
# the round seam: waves, alignment, failure inside a wave
# ----------------------------------------------------------------------
class _RecordingLink:
    """A link with no receivers: echoes every dispatched state and
    stream record back as an exact contribution and records the size of
    each ``gather``."""

    name = "recording"
    parallelism = 2
    busy_s = 0.0

    def __init__(self, wave_cohorts):
        self.wave_cohorts = wave_cohorts
        self.gathers = []

    def gather(self, flights):
        self.gathers.append([flight.worker_id for flight in flights])
        for flight in flights:
            payload = decode_dispatch(flight.frame)
            flight.reply = encode_contribution(
                payload.worker_id, payload.state, train_loss=0.0,
                wall_time_s=0.0, num_samples=1, stream=payload.stream,
            )
        return {flight.worker_id: 0.0 for flight in flights}


@pytest.mark.parametrize("wave_cohorts", [None, 1])
def test_run_round_sends_the_waves_its_link_declares(mnist, wave_cohorts):
    """K one-member cohorts plus a 3-member cohort: one gather of K+3
    flights over a whole-round link, K+1 gathers over a per-cohort
    link; either way K+1 result lists aligned with ``worker_ids``."""
    fleet = make_scenario_devices({"A": 7}, np.random.default_rng(7))
    engine = Engine(ClassificationTask(mnist, "cnn"), fleet,
                    _config(max_rounds=1))
    try:
        cohort = next(iter(engine.dispatch_many(
            {worker_id: 0.3 for worker_id in engine.worker_ids},
            0.0, round_index=0,
        ).values())).cohort
        groups = [[w] for w in engine.worker_ids[:4]] \
            + [engine.worker_ids[4:]]
        requests = [
            CohortTrainRequest(cohort=cohort, worker_ids=group,
                               taus=[2] * len(group),
                               hyper=_hyper(engine.config))
            for group in groups
        ]
        link = _RecordingLink(wave_cohorts)
        executor = RemoteExecutor(link, engine.workers)

        assert executor.run_round([]) == []
        assert link.gathers == []

        batches = executor.run_round(requests, round_index=0)
        assert [[r.worker_id for r in batch] for batch in batches] == groups
        assert link.gathers == (
            [engine.worker_ids] if wave_cohorts is None else groups
        )
        # the one-element case
        assert [r.worker_id for r in executor.run_cohort(requests[-1])] \
            == groups[-1]
    finally:
        engine.close()


def test_child_error_on_a_queued_flight_surfaces_typed(mnist, devices,
                                                       monkeypatch):
    """The second flight of one child's queue blows up while the other
    child is still working through its own: the gather raises the
    typed error with the child's traceback (the retry budget, not a
    sleep, bounds the wait) and the pool still closes in time."""
    join_timeout_s = 1.5
    engine = Engine(ClassificationTask(mnist, "cnn"), devices,
                    _config(max_rounds=1))
    slow_receivers(monkeypatch, engine.worker_ids, 0.3)
    pool = ProcessPool(
        _specs(engine), num_procs=2, skeleton=engine.model,
        retry=RetryPolicy(timeout_s=30.0, max_retries=6, backoff_s=0.1),
    )
    try:
        # two children: the third flight waits in the queue
        second_in_queue = engine.worker_ids[2]
        flights = [
            InFlight(r.worker_id, encode_dispatch(
                r.worker_id, r.plan, r.state, tau=r.tau, hyper=r.hyper,
            ))
            for r in _member_requests(engine, engine.worker_ids)
        ]
        for flight in flights:
            if flight.worker_id == second_in_queue:
                flight.frame = b"not a dispatch frame"
        with pytest.raises(TransportError) as caught:
            pool.gather(flights)
        assert not isinstance(caught.value, TransportTimeoutError)
        assert "Traceback" in str(caught.value)
        assert "WireFormatError" in str(caught.value)
    finally:
        start = time.perf_counter()
        pool.close(join_timeout_s=join_timeout_s)
        closed_in = time.perf_counter() - start
        engine.close()
    assert closed_in < 2 * join_timeout_s + 1.0
    assert all(not member.proc.is_alive() for member in pool.members)


# ----------------------------------------------------------------------
# seam construction
# ----------------------------------------------------------------------
def test_serial_executor_is_default_and_handles_empty(mnist, devices):
    engine = Engine(ClassificationTask(mnist, "cnn"), devices, _config())
    try:
        assert isinstance(engine.executor, SerialExecutor)
        assert engine.executor.run([]) == []
        assert engine.executor.last_stragglers == []
    finally:
        engine.close()


def test_make_executor_rejects_unknown_kind():
    config = _config()
    config.executor = "threads"
    with pytest.raises(ValueError, match="unknown executor"):
        make_executor(config, workers={})


def test_make_executor_rejects_profiler_with_process_pool():
    config = _config(executor="process")
    telemetry = Telemetry(profiler=LayerProfiler(0))
    with pytest.raises(ValueError, match="profiler"):
        make_executor(config, workers={}, telemetry=telemetry)
