"""Telemetry parity between the serial and process executors.

Fanning local training out to a worker-process pool must not lose
observability: the engine-side spans and counters still fire, the
pool adds its own ``parallel_train`` / ``serialize`` / ``transfer``
spans, and the transport's ``wire_bytes_total`` accounting reconciles
with the parameter counts :class:`CommVolumeHook` reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.hooks import CommVolumeHook
from repro.fl.runner import run_federated_training
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry import MetricsRegistry, Telemetry, TelemetryHook, Tracer
from tests.support.telemetry import ListSink

ROUNDS = 2

#: float32 parameters on the wire
_BYTES_PER_PARAM = 4
#: generous per-frame allowance for headers, plan tables and names
_FRAME_OVERHEAD = 64 * 1024


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=8, test_per_class=2,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices({"A": 2, "B": 2},
                                 np.random.default_rng(5))


def _run(task, devices, executor, wire_profile="exact"):
    config = FLConfig(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                      max_rounds=ROUNDS, local_iterations=1,
                      batch_size=4, eval_every=10_000, seed=7,
                      executor=executor,
                      num_procs=2 if executor == "process" else None,
                      wire_profile=wire_profile)
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink), metrics=MetricsRegistry())
    comm = CommVolumeHook()
    history = run_federated_training(
        task, devices, config,
        hooks=[TelemetryHook(telemetry), comm], telemetry=telemetry)
    return history, sink, telemetry.metrics, comm


@pytest.fixture(scope="module")
def serial_run(task, devices):
    return _run(task, devices, "serial")


@pytest.fixture(scope="module")
def process_run(task, devices):
    return _run(task, devices, "process")


@pytest.fixture(scope="module")
def sparse_run(task, devices):
    return _run(task, devices, "process",
                wire_profile="sparse+quantized")


def _counter_total(metrics, name):
    return sum(c.value for c in metrics.counters if c.name == name)


def test_engine_spans_survive_process_fanout(serial_run, process_run):
    _, serial_sink, _, _ = serial_run
    _, process_sink, _, _ = process_run
    serial_names = {s["name"] for s in serial_sink.spans()}
    process_names = {s["name"] for s in process_sink.spans()}
    # everything the serial engine traces is still traced (the stacked
    # cohort pass is the serial executor's own: the pool trains every
    # member behind its own frame)...
    assert serial_names - {"cohort_train"} <= process_names
    # ...plus the pool's own phases
    assert {"parallel_train", "serialize", "transfer"} <= process_names
    # per-worker training is not lost across the pool boundary: one
    # local_train span per member, however the serial side batched them
    serial_members = len(serial_sink.spans("local_train")) + sum(
        span["attrs"]["members"]
        for span in serial_sink.spans("cohort_train")
    )
    assert len(process_sink.spans("local_train")) == serial_members
    assert serial_members == ROUNDS * 4
    for span in process_sink.spans("local_train"):
        assert span["attrs"]["train_loss"] == pytest.approx(
            span["attrs"]["train_loss"])
        assert span["attrs"]["worker_wall_s"] >= 0.0
    assert len(process_sink.spans("round")) == ROUNDS


def test_counters_match_across_executors(serial_run, process_run):
    _, _, serial_metrics, _ = serial_run
    _, _, process_metrics, _ = process_run
    for name in ("dispatches_total", "contributions_total",
                 "download_params_total", "upload_params_total",
                 "aggregations_total"):
        assert _counter_total(process_metrics, name) == \
            _counter_total(serial_metrics, name), name
    # every member is counted by the route that trained it, on every
    # plane: here the serial executor stacks each cohort, and the pool
    # trains every member through the one member-flight route
    routes = ("cohort_train_vectorised_total", "cohort_train_fallback_total")
    for metrics in (serial_metrics, process_metrics):
        assert sum(_counter_total(metrics, name) for name in routes) \
            == ROUNDS * 4
    assert _counter_total(process_metrics,
                          "cohort_train_fallback_total") == ROUNDS * 4


def test_histories_identical(serial_run, process_run):
    serial_history, _, _, _ = serial_run
    process_history, _, _, _ = process_run
    for a, b in zip(serial_history.rounds, process_history.rounds):
        assert a.train_loss == b.train_loss
        assert a.sim_time_s == b.sim_time_s
        assert a.metric == b.metric


def test_wire_bytes_reconcile_with_comm_volume(process_run):
    """`wire_bytes_total` (transport frames) brackets the parameter
    volume `CommVolumeHook` counts: every dispatched/uploaded float32
    parameter crossed the wire once, plus bounded framing overhead."""
    _, _, metrics, comm = process_run
    by_kind = {c.labels["kind"]: c.value for c in metrics.counters
               if c.name == "wire_bytes_total"}
    # the frames are the whole wire: no module graph rides beside them
    assert set(by_kind) == {"dispatch", "contribution"}

    dispatches = _counter_total(metrics, "dispatches_total")
    contributions = _counter_total(metrics, "contributions_total")

    dispatch_payload = comm.total_download_params * _BYTES_PER_PARAM
    assert by_kind["dispatch"] >= dispatch_payload
    assert by_kind["dispatch"] <= dispatch_payload \
        + dispatches * _FRAME_OVERHEAD

    upload_payload = comm.total_upload_params * _BYTES_PER_PARAM
    assert by_kind["contribution"] >= upload_payload
    assert by_kind["contribution"] <= upload_payload \
        + contributions * _FRAME_OVERHEAD


def test_sparse_profile_wire_bytes_stay_honest(process_run, sparse_run):
    """Under the sparse+quantized profile the contribution leg must
    genuinely shrink (the accounting is not allowed to keep reporting
    dense volumes), dispatches stay dense and bracketed, and the
    contribution side prices below the 4 bytes/param dense floor."""
    _, _, exact_metrics, _ = process_run
    _, _, metrics, comm = sparse_run
    by_kind = {c.labels["kind"]: c.value for c in metrics.counters
               if c.name == "wire_bytes_total"}
    exact_by_kind = {c.labels["kind"]: c.value
                     for c in exact_metrics.counters
                     if c.name == "wire_bytes_total"}

    # dispatch leg is dense in every profile: same bracketing as exact
    dispatch_payload = comm.total_download_params * _BYTES_PER_PARAM
    dispatches = _counter_total(metrics, "dispatches_total")
    assert by_kind["dispatch"] >= dispatch_payload
    assert by_kind["dispatch"] <= dispatch_payload \
        + dispatches * _FRAME_OVERHEAD

    # contribution leg: strictly below the dense pricing, and below
    # what the exact run actually shipped
    upload_payload = comm.total_upload_params * _BYTES_PER_PARAM
    assert 0 < by_kind["contribution"] < upload_payload
    assert by_kind["contribution"] < exact_by_kind["contribution"]
    bytes_per_param = by_kind["contribution"] / comm.total_upload_params
    assert bytes_per_param < 4.0
