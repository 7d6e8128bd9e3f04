"""The one production round vs the ``repro.verify.oracle`` reference.

The engine (cohort buckets, cached plans/templates, executor requests,
scatter-add aggregation) must be bitwise identical to the per-member
reference round (uncached plan + extraction per worker, in-place
training, dense zero-expansion + materialised residuals) under every
scheduler and aggregation scheme, on an RNG-free model (shared
templates, vectorised cohorts) and on RNG-bearing ones (every worker a
cohort of one), with and without compressed uploads.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_cifar10, make_synthetic_mnist
from repro.data.text import make_synthetic_ptb
from repro.fl.aggregation import Contribution, make_aggregator
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.tasks import ClassificationTask, LanguageModelTask
from repro.simulation.cluster import make_scenario_devices
from repro.verify.differential import (
    compare_state_sequences,
    normalised_history_bytes,
)
from repro.verify.oracle import ReferenceEngine, dense_aggregate
from tests.support.differential import (
    capture_run,
    differential_engine_vs_reference,
)

SCHEDULERS = {
    "sync": {},
    "async": {"async_m": 3},
    "semi_sync": {"semi_sync_deadline_s": 30.0},
}
SCHEMES = ("r2sp", "bsp", "r2sp_weighted", "bsp_weighted")


def _cnn_task():
    dataset = make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


def _alexnet_task():
    dataset = make_synthetic_cifar10(train_per_class=8, test_per_class=2,
                                     rng=np.random.default_rng(1))
    return ClassificationTask(
        dataset, "alexnet",
        model_kwargs={"width_mult": 0.1, "dropout": 0.2},
    )


def _lstm_task():
    corpus = make_synthetic_ptb(vocab_size=40, train_tokens=2000,
                                valid_tokens=200, test_tokens=200,
                                rng=np.random.default_rng(2))
    return LanguageModelTask(
        corpus, seq_len=8, lm_batch_size=4,
        model_kwargs={"embedding_dim": 8, "hidden_size": 12,
                      "dropout": 0.2},
    )


#: model key -> (task factory, carries rng-bearing modules, config extras)
MODELS = {
    "cnn": (_cnn_task, False, {"batch_size": 8}),
    "alexnet": (_alexnet_task, True, {"batch_size": 8}),
    "lstm": (_lstm_task, True, {"batch_size": 1, "lr": 0.5}),
}


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices({"A": 2, "B": 2}, np.random.default_rng(7))


def _config(model, **overrides):
    params = dict(strategy="fedmp", max_rounds=2, local_iterations=1,
                  eval_every=10, seed=11,
                  strategy_kwargs={"warmup_rounds": 1, "max_ratio": 0.6})
    params.update(MODELS[model][2])
    params.update(overrides)
    return FLConfig(**params)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_engine_matches_reference_round(devices, model, scheduler, scheme):
    factory, has_rng, _ = MODELS[model]
    assert bool(factory().build_model(np.random.default_rng(0))
                .rng_states()) == has_rng
    report = differential_engine_vs_reference(
        factory, devices,
        _config(model, sync_scheme=scheme, **SCHEDULERS[scheduler]),
    )
    assert report.passed, report.describe()
    assert report.max_ulps == 0


@pytest.mark.parametrize("model", sorted(MODELS))
def test_engine_matches_reference_with_compressed_uploads(devices, model):
    """FlexCom keeps < 100% of every upload, so the error-feedback
    memories take part in both rounds."""
    factory = MODELS[model][0]
    config = _config(model, strategy="flexcom", strategy_kwargs={},
                     max_rounds=3)
    engine = Engine(factory(), devices, config)
    assert engine.strategy.upload_keep_fraction(engine.worker_ids[0]) < 1.0
    engine.close()
    report = differential_engine_vs_reference(factory, devices, config)
    assert report.passed, report.describe()
    assert report.max_ulps == 0


@pytest.mark.parametrize("scheduler", ["sync", "async"])
@pytest.mark.parametrize("model", ["cnn", "lstm"])
def test_engine_history_matches_reference_history(devices, model, scheduler):
    """Round records (losses, metrics, ratios, simulated times), not
    only the weights: pricing, evaluation and loss bookkeeping are
    route-independent."""
    factory = MODELS[model][0]
    config = _config(model, eval_every=1, **SCHEDULERS[scheduler])
    history_engine, states_engine = capture_run(factory(), devices, config)
    history_reference, states_reference = capture_run(
        factory(), devices, config, engine_cls=ReferenceEngine)
    assert normalised_history_bytes(history_engine) \
        == normalised_history_bytes(history_reference)
    report = compare_state_sequences(states_engine, states_reference)
    assert report.passed, report.describe()


def test_cohort_rounds_off_is_rejected():
    with pytest.raises(ValueError, match="repro.verify.oracle"):
        FLConfig(cohort_rounds="off")


def test_cohort_rounds_on_equals_auto_bit_for_bit(devices):
    config = _config("cnn", eval_every=1)
    history_auto, states_auto = capture_run(
        _cnn_task(), devices, replace(config, cohort_rounds="auto"))
    history_on, states_on = capture_run(
        _cnn_task(), devices, replace(config, cohort_rounds="on"))
    report = compare_state_sequences(states_auto, states_on)
    assert report.passed, report.describe()
    assert normalised_history_bytes(history_auto) \
        == normalised_history_bytes(history_on)


def test_rng_bearing_model_dispatches_one_member_cohorts(devices):
    engine = Engine(_lstm_task(), devices, _config("lstm"))
    ratios = {worker_id: 0.25 for worker_id in engine.worker_ids}
    dispatches = engine.dispatch_many(ratios, 0.0, round_index=0)
    cohorts = [dispatch.cohort for dispatch in dispatches.values()]
    assert len({id(cohort) for cohort in cohorts}) == len(ratios)
    assert all(len(cohort) == 1 for cohort in cohorts)
    # plans carry no randomness and stay shared; templates never are
    assert len({id(cohort.plan) for cohort in cohorts}) == 1
    assert len({id(cohort.template) for cohort in cohorts}) == len(ratios)
    assert not engine._submodel_cache
    engine.close()


def test_dense_aggregate_matches_scatter_and_cohort_paths():
    """The oracle agrees with the production fold bit for bit: unit
    weights sharing a plan fold as one cohort partial sum, sample
    weights member by member."""
    task = _cnn_task()
    model = task.build_model(np.random.default_rng(3))
    template = model.state_dict()
    plan = task.build_plan(model, 0.4)
    rng = np.random.default_rng(4)
    contributions = []
    for worker_id in range(3):
        sub = task.extract(model, plan, rng)
        state = {key: value + np.float32(0.01 * (worker_id + 1))
                 for key, value in sub.state_dict().items()}
        contributions.append(Contribution(
            worker_id=worker_id, sub_state=state, plan=plan,
            num_samples=10 + worker_id, global_state=template,
        ))
    for scheme in ("r2sp", "bsp", "r2sp_weighted", "bsp_weighted"):
        aggregator = make_aggregator(scheme)
        expected = dense_aggregate(aggregator, contributions, template)
        actual = aggregator.aggregate(contributions, template)
        for key in template:
            np.testing.assert_array_equal(
                actual[key].view(np.uint64), expected[key].view(np.uint64),
                err_msg=f"{scheme} {key}")
