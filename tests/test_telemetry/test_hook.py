"""TelemetryHook end-to-end against the round engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.runner import run_federated_training
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry import MetricsRegistry, Telemetry, TelemetryHook, Tracer
from tests.support.telemetry import ListSink


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def _config(**kwargs):
    base = dict(strategy="fedmp", max_rounds=2, local_iterations=1,
                batch_size=8, seed=3,
                strategy_kwargs={"warmup_rounds": 1})
    base.update(kwargs)
    return FLConfig(**base)


def _run(task, devices, config):
    sink = ListSink()
    telemetry = Telemetry(tracer=Tracer(sink), metrics=MetricsRegistry())
    history = run_federated_training(task, devices, config,
                                     hooks=[TelemetryHook(telemetry)],
                                     telemetry=telemetry)
    return history, sink, telemetry


def test_spans_cover_every_engine_event(task, devices):
    history, sink, _ = _run(task, devices, _config())
    n = len(devices)
    rounds = len(history.rounds)
    assert len(sink.spans("round")) == rounds
    assert len(sink.spans("decide")) == rounds
    assert len(sink.spans("dispatch")) == n * rounds
    # cohort-sharded dispatch prunes once per (ratio, cluster) cohort,
    # not once per member
    cohorts = len(sink.spans("dispatch_cohort"))
    assert rounds <= cohorts <= n * rounds
    assert len(sink.spans("prune")) == cohorts
    # training spans: one per member on the fallback path, one per
    # cohort on the vectorised path -- together they cover everyone
    trained = sum(
        span["attrs"].get("members", 1)
        for span in sink.spans("local_train") + sink.spans("cohort_train")
    )
    assert trained == n * rounds
    assert len(sink.spans("aggregate")) == rounds
    # every dispatch/train span names its worker and round
    for span in sink.spans("dispatch") + sink.spans("local_train"):
        assert span["attrs"]["worker"] in {d.device_id for d in devices}
        assert 0 <= span["attrs"]["round"] < rounds
    # dispatch spans carry the pruning ratio and priced volumes
    for span in sink.spans("dispatch"):
        assert 0.0 <= span["attrs"]["ratio"] < 1.0
        assert span["attrs"]["download_params"] > 0
        assert span["attrs"]["completion_time_s"] > 0


def test_spans_nest_under_their_round(task, devices):
    _, sink, _ = _run(task, devices, _config(max_rounds=1))
    round_ids = {s["span_id"] for s in sink.spans("round")}
    for name in ("decide", "dispatch_cohort", "local_train",
                 "cohort_train", "aggregate"):
        for span in sink.spans(name):
            assert span["parent_id"] in round_ids, name
    # per-member dispatch and the per-cohort prune nest under their
    # cohort span, not directly under the round
    cohort_ids = {s["span_id"] for s in sink.spans("dispatch_cohort")}
    for name in ("dispatch", "prune"):
        for span in sink.spans(name):
            assert span["parent_id"] in cohort_ids, name


def test_metrics_reconcile_with_history(task, devices):
    history, _, telemetry = _run(task, devices, _config())
    counters = {
        (c.name, c.labels.get("worker")): c.value
        for c in telemetry.metrics.counters
    }
    rounds = len(history.rounds)
    for device in devices:
        assert counters[("dispatches_total", device.device_id)] == rounds
        assert counters[("contributions_total", device.device_id)] == rounds
    hists = {h.name: h for h in telemetry.metrics.histograms}
    assert hists["round_time_s"].count == rounds
    assert hists["round_time_s"].sum == pytest.approx(
        sum(r.round_time_s for r in history.rounds)
    )


def test_eucb_snapshot_published_per_round(task, devices):
    history, sink, _ = _run(task, devices, _config())
    events = sink.events("eucb_snapshot")
    assert len(events) == len(history.rounds)
    for record in history.rounds:
        snapshot = record.extras["eucb"]
        assert set(snapshot["agents"]) == {
            str(d.device_id) for d in devices
        }
        for agent in snapshot["agents"].values():
            partition = agent["partition"]
            assert partition["edges"][0] == partition["low"]
            assert partition["edges"][-1] == partition["high"]
            assert len(agent["arms"]) == agent["num_regions"]
            for arm in agent["arms"]:
                assert arm["pulls"] >= 0
    # pull counts grow round over round
    first = history.rounds[0].extras["eucb"]["agents"]
    last = history.rounds[-1].extras["eucb"]["agents"]
    for wid in first:
        assert last[wid]["rounds_played"] >= first[wid]["rounds_played"]


def test_round_record_events_mirror_history(task, devices):
    history, sink, _ = _run(task, devices, _config())
    events = sink.events("round_record")
    assert len(events) == len(history.rounds)
    for event, record in zip(events, history.rounds):
        assert event["attrs"]["round"] == record.round_index
        assert event["attrs"]["sim_time_s"] == pytest.approx(
            record.sim_time_s
        )
        assert set(event["attrs"]["ratios"]) == {
            str(wid) for wid in record.ratios
        }


def test_no_snapshot_for_strategies_without_one(task, devices):
    history, sink, _ = _run(task, devices, _config(
        strategy="synfl", strategy_kwargs={},
    ))
    assert sink.events("eucb_snapshot") == []
    assert all("eucb" not in r.extras for r in history.rounds)


def test_telemetry_does_not_change_training(task, devices):
    bare = run_federated_training(task, devices, _config())
    observed, _, _ = _run(task, devices, _config())
    for a, b in zip(bare.rounds, observed.rounds):
        assert a.train_loss == b.train_loss
        assert a.sim_time_s == b.sim_time_s
        assert a.metric == b.metric
        assert a.ratios == b.ratios
