"""Executor seam: serial-vs-process parity, telemetry, straggler wiring.

The headline guarantee (ISSUE 5 / DESIGN.md 3.5): process-pool
execution is bitwise identical -- 0 ULPs -- to inline serial execution
under the same seed, across schedulers and model families, with
byte-identical normalised history JSON.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_cifar10, make_synthetic_mnist
from repro.data.text import make_synthetic_ptb
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask, LanguageModelTask
from repro.runtime.codec import TrainHyper
from repro.runtime.executor import (
    RemoteExecutor,
    SerialExecutor,
    TrainRequest,
    make_executor,
)
from repro.runtime.pool import ProcessPool
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import LayerProfiler
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import ListSink, Tracer
from repro.verify.differential import differential_serial_vs_process


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
    factory = lambda: ClassificationTask(mnist, "cnn")  # noqa: E731
    config = _config(scheduler="async", async_m=2)
    report, histories_match = differential_serial_vs_process(
        factory, devices, config, tolerance_ulps=0, num_procs=2,
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
    report, histories_match = differential_serial_vs_process(
        factory, devices, config, tolerance_ulps=0, num_procs=2,
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


def test_straggler_heartbeat_flags_slow_member(mnist, devices):
    """An emulated-latency outlier must be flagged, counted and
    surfaced as an event -- without affecting results."""
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink=sink),
                          metrics=MetricsRegistry())
    task = ClassificationTask(mnist, "cnn")
    config = _config(max_rounds=1)
    engine = Engine(task, devices, config)
    executor = RemoteExecutor(
        ProcessPool(engine.worker_specs, num_procs=4,
                    skeleton=engine.model),
        telemetry=telemetry, straggler_quorum=0.75,
        straggler_multiplier=1.5,
    )
    try:
        slow_id = engine.worker_ids[-1]
        dispatches = list(engine.dispatch_many(
            {worker_id: 0.3 for worker_id in engine.worker_ids},
            0.0, round_index=0,
        ).values())
        hyper = TrainHyper(lr=config.lr, momentum=config.momentum,
                           weight_decay=config.weight_decay,
                           prox_mu=0.0, clip_norm=config.clip_norm)
        requests = [
            TrainRequest(
                worker_id=d.worker_id, ratio=d.ratio, tau=d.tau,
                plan=d.plan, submodel=d.cohort.template,
                dispatched_state=d.dispatched_state, hyper=hyper,
                emulate_s=0.8 if d.worker_id == slow_id else 0.05,
            )
            for d in dispatches
        ]
        results = executor.run(requests, round_index=0)
        assert [r.worker_id for r in results] \
            == [d.worker_id for d in dispatches]
        assert executor.last_stragglers == [slow_id]
        assert _counter_sum(telemetry.metrics, "stragglers_total",
                            executor="process") == 1
        events = sink.events("straggler_detected")
        assert events and events[0]["attrs"]["workers"] == [slow_id]
    finally:
        executor.close()
        engine.close()


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
        make_executor(config, workers={}, specs=[])


def test_make_executor_rejects_profiler_with_process_pool():
    config = _config(executor="process")
    telemetry = Telemetry(profiler=LayerProfiler(0))
    with pytest.raises(ValueError, match="profiler"):
        make_executor(config, workers={}, specs=[], telemetry=telemetry)
