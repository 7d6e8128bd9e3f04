"""Cohort-sharded rounds: bitwise parity, cache conformance, sampling.

The cohort path (DESIGN.md section 3.3) is specified to be a pure
execution-plan change: bucketing workers by (ratio, cluster), sharing
one extracted sub-model per bucket, vectorising local training and
accumulating per-cohort float64 partial sums must all be bitwise
invisible next to dispatching and accumulating each member alone --
which is what the ``repro.verify.oracle`` reference round does.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.io import save_history
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry
from repro.verify.differential import (
    StateCaptureHook,
    compare_state_sequences,
    normalised_history_bytes,
)
from repro.verify.oracle import ReferenceEngine
from tests.support.differential import capture_run

SCHEDULER_CONFIGS = {
    "sync": {},
    "async": {"async_m": 3},
    "semi_sync": {"semi_sync_deadline_s": 30.0},
}


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def _config(**kwargs):
    base = dict(strategy="fedmp", max_rounds=3, local_iterations=1,
                batch_size=8, eval_every=10, seed=11,
                strategy_kwargs={"warmup_rounds": 1})
    base.update(kwargs)
    return FLConfig(**base)


def _counter_sum(telemetry, name, **labels):
    total = 0.0
    for counter in telemetry.metrics.counters:
        if counter.name == name and all(
            str(counter.labels.get(k)) == str(v) for k, v in labels.items()
        ):
            total += counter.value
    return total


# ----------------------------------------------------------------------
# 0-ULP parity across all three schedulers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CONFIGS))
def test_cohort_path_is_bitwise_identical(task, devices, scheduler):
    config = _config(**SCHEDULER_CONFIGS[scheduler])
    telemetry = Telemetry(metrics=MetricsRegistry())
    capture = StateCaptureHook()
    engine = Engine(task, devices, config, hooks=[capture],
                    telemetry=telemetry)
    make_scheduler(config).run(engine)
    # the ten-device fleet really exercises the shared routes: E-UCB's
    # warm-up round puts whole clusters into one vectorised cohort
    assert _counter_sum(telemetry, "cohort_train_vectorised_total") > 0
    assert _counter_sum(telemetry, "dispatch_cohort_members_total") \
        > _counter_sum(telemetry, "dispatch_cohorts_total")
    _, member = capture_run(task, devices, config,
                            engine_cls=ReferenceEngine)
    report = compare_state_sequences(capture.states, member,
                                     tolerance_ulps=0,
                                     label_a="cohort", label_b="member")
    assert report.passed, report.describe()


def test_cohort_histories_match_member_histories(task, devices):
    config = _config()
    history_cohort, _ = capture_run(task, devices, config)
    history_member, _ = capture_run(task, devices, config,
                                    engine_cls=ReferenceEngine)
    assert normalised_history_bytes(history_cohort) \
        == normalised_history_bytes(history_member)


# ----------------------------------------------------------------------
# dispatch-cache clear / counter conformance per scheduler
# ----------------------------------------------------------------------
def _run_with_metrics(task, devices, config):
    telemetry = Telemetry(metrics=MetricsRegistry())
    engine = Engine(task, devices, config, telemetry=telemetry)
    try:
        make_scheduler(config).run(engine)
    finally:
        engine.close()
    return engine, telemetry


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_CONFIGS))
def test_cohort_cache_counters_conform(task, devices, scheduler):
    rounds = 3
    config = _config(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                     max_rounds=rounds, **SCHEDULER_CONFIGS[scheduler])
    engine, telemetry = _run_with_metrics(task, devices, config)
    cohorts = _counter_sum(telemetry, "dispatch_cohorts_total")
    assert cohorts > 0
    # every cohort bucket performs exactly one plan and one sub-model
    # cache lookup
    for kind in ("plan", "submodel"):
        hits = _counter_sum(telemetry, "dispatch_cache_hits_total",
                            kind=kind)
        misses = _counter_sum(telemetry, "dispatch_cache_misses_total",
                              kind=kind)
        assert hits + misses == cohorts
        # aggregation invalidates the caches, so a fixed 0.3 ratio must
        # re-miss at least once per aggregated round
        assert misses >= rounds
    # a fixed ratio buckets each round into one cohort per cluster, so
    # the member tally is a proper multiple of the bucket tally
    members = _counter_sum(telemetry, "dispatch_cohort_members_total")
    assert members >= cohorts
    assert members % len(devices) == 0 or members > len(devices)


def test_sync_run_leaves_caches_cleared(task, devices):
    config = _config(strategy="fixed", strategy_kwargs={"ratio": 0.3})
    engine, _ = _run_with_metrics(task, devices, config)
    # the final aggregation invalidated everything; nothing re-primed it
    assert engine._plan_cache == {}
    assert engine._submodel_cache == {}
    assert engine._round_state is None


# ----------------------------------------------------------------------
# per-round client sampling
# ----------------------------------------------------------------------
def test_client_sampling_is_deterministic(task, devices):
    config = _config(clients_per_round=4, history_detail="member")
    history_a, states_a = capture_run(task, devices, config)
    history_b, states_b = capture_run(task, devices, config)
    assert normalised_history_bytes(history_a) \
        == normalised_history_bytes(history_b)
    report = compare_state_sequences(states_a, states_b, tolerance_ulps=0)
    assert report.passed, report.describe()
    for record in history_a.rounds:
        assert len(record.ratios) == 4


def test_sampling_disabled_when_fleet_fits(task, devices):
    base = _config()
    history_all, _ = capture_run(task, devices, base)
    history_cap, _ = capture_run(
        task, devices, replace(base, clients_per_round=len(devices)),
    )
    # m >= fleet draws nothing from the sampling stream, so the runs
    # are byte-identical
    assert normalised_history_bytes(history_all) \
        == normalised_history_bytes(history_cap)


def test_sampled_rounds_count_sampled_clients(task, devices):
    config = _config(clients_per_round=4)
    _, telemetry = _run_with_metrics(task, devices, config)
    assert _counter_sum(telemetry, "clients_sampled_total") \
        == 4 * config.max_rounds


# ----------------------------------------------------------------------
# history detail: per-cohort aggregates instead of O(fleet) entries
# ----------------------------------------------------------------------
def test_cohort_history_detail_shrinks_records_and_roundtrips(
        task, tmp_path):
    fleet = make_scenario_devices({"A": 12, "B": 12},
                                  np.random.default_rng(3))
    # a shared ratio is what makes cohorts coarse: 24 workers collapse
    # into one (ratio, cluster) bucket per cluster
    base = _config(max_rounds=2, strategy="fixed",
                   strategy_kwargs={"ratio": 0.3})
    history_member, _ = capture_run(
        task, fleet, replace(base, history_detail="member"))
    history_cohort, _ = capture_run(
        task, fleet, replace(base, history_detail="cohort"))

    member_path = tmp_path / "member.json"
    cohort_path = tmp_path / "cohort.json"
    save_history(history_member, member_path)
    save_history(history_cohort, cohort_path)
    # cohort detail stores one aggregate per (ratio, cluster) bucket,
    # not one entry per worker: the file must shrink on a 24-worker
    # fleet with two clusters
    assert cohort_path.stat().st_size < member_path.stat().st_size

    for entry in json.loads(cohort_path.read_text())["rounds"]:
        assert entry["ratios"] == {}
        assert entry["completion_times"] == {}
        assert entry["cohorts"], "cohort detail lost in the export"
        assert sum(c["members"] for c in entry["cohorts"]) == len(fleet)
        for cohort in entry["cohorts"]:
            assert set(cohort) == {"ratio", "cluster", "members",
                                   "num_samples", "time_min",
                                   "time_mean", "time_max"}
    # member detail keeps the legacy per-worker entries
    for entry in json.loads(member_path.read_text())["rounds"]:
        assert len(entry["ratios"]) == len(fleet)
        assert "cohorts" not in entry
