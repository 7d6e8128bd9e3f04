"""Dispatch cache: per-epoch plan/template cache semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def _engine(task, devices, **kwargs):
    base = dict(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                max_rounds=2, local_iterations=1, batch_size=8,
                eval_every=10, seed=5)
    base.update(kwargs)
    config = FLConfig(**base)
    telemetry = Telemetry(metrics=MetricsRegistry())
    return Engine(task, devices, config, telemetry=telemetry)


def _counter_sum(engine, name, **labels):
    total = 0.0
    for counter in engine.telemetry.metrics.counters:
        if counter.name == name and all(
            str(counter.labels.get(k)) == str(v) for k, v in labels.items()
        ):
            total += counter.value
    return total


def _dispatch_each(engine, worker_ids, ratio=0.3, round_index=0):
    """One ``dispatch_many`` call per worker: every later worker of the
    epoch has to be served from the cache."""
    return [
        engine.dispatch_many({worker_id: ratio}, 0.0, round_index)[worker_id]
        for worker_id in worker_ids
    ]


def test_same_ratio_dispatches_share_plan_and_submodel(task, devices):
    engine = _engine(task, devices)
    n = len(engine.worker_ids)
    _dispatch_each(engine, engine.worker_ids)
    assert _counter_sum(engine, "dispatch_cache_misses_total",
                        kind="plan") == 1
    assert _counter_sum(engine, "dispatch_cache_hits_total",
                        kind="plan") == n - 1
    assert _counter_sum(engine, "dispatch_cache_misses_total",
                        kind="submodel") == 1
    assert _counter_sum(engine, "dispatch_cache_hits_total",
                        kind="submodel") == n - 1


def test_cached_clones_are_independent_models(task, devices):
    engine = _engine(task, devices)
    first, second = _dispatch_each(engine, engine.worker_ids[:2])
    assert first.cohort is not second.cohort
    assert first.plan is second.plan
    assert first.cohort.template is second.cohort.template
    pristine = {key: value.copy()
                for key, value in first.dispatched_state.items()}
    # training one member must leak neither into the shared template
    # nor into the pristine state the other member starts from
    # (no upload compression: the contribution carries the trained state)
    [(contribution, _)] = engine.train_all([first], round_index=0)
    assert any(
        not np.array_equal(contribution.sub_state[key], pristine[key])
        for key in pristine
    )
    template_state = second.cohort.template.state_dict()
    for key, value in pristine.items():
        assert np.array_equal(second.dispatched_state[key], value)
        assert np.array_equal(template_state[key], value)


def test_aggregate_invalidates_the_cache(task, devices):
    engine = _engine(task, devices)
    dispatches = _dispatch_each(engine, engine.worker_ids)
    contributions = [
        contribution
        for contribution, _ in engine.train_all(dispatches, round_index=0)
    ]
    assert engine._plan_cache and engine._submodel_cache
    engine.aggregate(contributions, round_index=0)
    assert not engine._plan_cache
    assert not engine._submodel_cache
    assert engine._round_state is None
    # next round misses again (global model changed)
    _dispatch_each(engine, engine.worker_ids[:1], round_index=1)
    assert _counter_sum(engine, "dispatch_cache_misses_total",
                        kind="plan") == 2


def test_r2sp_round_shares_one_global_snapshot(task, devices):
    engine = _engine(task, devices, sync_scheme="r2sp")
    first, second = _dispatch_each(engine, engine.worker_ids[:2])
    assert first.global_state is not None
    assert first.global_state is second.global_state


def test_bsp_dispatch_carries_no_global_snapshot(task, devices):
    engine = _engine(task, devices, sync_scheme="bsp")
    (dispatch,) = _dispatch_each(engine, engine.worker_ids[:1])
    assert dispatch.global_state is None
    assert engine._round_state is None


def test_submodel_sharing_disabled_for_rng_bearing_models(devices):
    """Dropout draws a fresh seed per extracted clone, so sub-model
    sharing would change the RNG stream; only the plan may be cached."""
    from repro.data.text import make_synthetic_ptb
    from repro.fl.tasks import LanguageModelTask

    corpus = make_synthetic_ptb(vocab_size=40, train_tokens=2000,
                                valid_tokens=200, test_tokens=200,
                                rng=np.random.default_rng(1))
    lm_task = LanguageModelTask(corpus, seq_len=8, lm_batch_size=4,
                                model_kwargs={"embedding_dim": 8,
                                              "hidden_size": 12,
                                              "dropout": 0.2})
    config = FLConfig(strategy="fixed", strategy_kwargs={"ratio": 0.25},
                      max_rounds=1, local_iterations=1, batch_size=4, seed=2)
    engine = Engine(lm_task, devices, config)
    first, second = _dispatch_each(engine, engine.worker_ids[:2], ratio=0.25)
    assert first.plan is second.plan          # plans carry no randomness
    assert first.cohort.template is not second.cohort.template
    assert first.cohort.template.rng_states() \
        != second.cohort.template.rng_states()
    assert not engine._submodel_cache


def test_compressed_upload_survives_ratio_changes(task, devices):
    """Regression: FlexCom-style compression combined with adaptive
    pruning used to crash in round 2 because the error-feedback memory
    was keyed in sub-model coordinates."""
    engine = _engine(task, devices, sync_scheme="bsp")
    worker_id = engine.worker_ids[0]
    for round_index, ratio in enumerate((0.3, 0.6, 0.0)):
        (dispatch,) = _dispatch_each(engine, [worker_id], ratio,
                                     round_index)
        trained = {
            key: value + 0.05
            for key, value in dispatch.dispatched_state.items()
        }
        uploaded = engine._compress_upload(
            worker_id, dispatch.dispatched_state, trained, 0.5, dispatch.plan
        )
        for key in trained:
            assert uploaded[key].shape == trained[key].shape
        engine._plan_cache.clear()
        engine._submodel_cache.clear()
