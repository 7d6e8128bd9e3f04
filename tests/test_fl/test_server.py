"""Parameter-server aggregation: R2SP vs BSP semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.aggregation import Contribution, make_aggregator
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.tasks import ClassificationTask
from repro.models import build_cnn
from repro.pruning import build_pruning_plan, extract_submodel
from repro.simulation.cluster import make_scenario_devices


def _contribution(model, ratio, rng, with_global_state=True, worker_id=0):
    plan = build_pruning_plan(model, ratio)
    sub = extract_submodel(model, plan, rng=rng)
    global_state = model.state_dict() if with_global_state else None
    return Contribution(worker_id=worker_id, sub_state=sub.state_dict(),
                        plan=plan, global_state=global_state)


def _aggregate(model, contributions, scheme):
    return make_aggregator(scheme).aggregate(contributions,
                                             model.state_dict())


def test_r2sp_untrained_submodel_is_identity(rng):
    """Aggregating untouched sub-models under R2SP must reproduce the
    global model exactly -- the core R2SP invariant."""
    model = build_cnn(rng=rng)
    before = model.state_dict()
    contributions = [
        _contribution(model, ratio, rng, worker_id=worker_id)
        for worker_id, ratio in enumerate((0.0, 0.3, 0.6))
    ]
    after = _aggregate(model, contributions, "r2sp")
    for key in before:
        assert np.allclose(after[key], before[key], atol=1e-6), key


def test_bsp_shrinks_pruned_positions(rng):
    """Without residual recovery, positions pruned by any worker lose
    mass (the degradation Fig. 7 demonstrates)."""
    model = build_cnn(rng=rng)
    before = model.state_dict()
    contributions = [_contribution(model, 0.5, rng, with_global_state=False)]
    after = _aggregate(model, contributions, "bsp")
    total_before = sum(np.abs(v).sum() for v in before.values())
    total_after = sum(np.abs(v).sum() for v in after.values())
    assert total_after < total_before


def test_r2sp_requires_residual(rng):
    model = build_cnn(rng=rng)
    contribution = _contribution(model, 0.5, rng, with_global_state=False)
    with pytest.raises(ValueError, match="residual"):
        _aggregate(model, [contribution], "r2sp")


def test_empty_contributions_rejected(rng):
    with pytest.raises(ValueError):
        _aggregate(build_cnn(rng=rng), [], "r2sp")


def test_unknown_scheme_rejected(rng):
    model = build_cnn(rng=rng)
    contribution = _contribution(model, 0.0, rng)
    with pytest.raises(ValueError):
        _aggregate(model, [contribution], "asp")


def test_aggregation_is_mean_over_workers(rng):
    """With identity plans, aggregation is plain FedAvg averaging."""
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.0)

    state_a = model.state_dict()
    state_b = {key: value + 2.0 for key, value in state_a.items()}
    contributions = [
        Contribution(0, state_a, plan, global_state=state_a),
        Contribution(1, state_b, plan, global_state=state_a),
    ]
    after = _aggregate(model, contributions, "r2sp")
    for key in state_a:
        assert np.allclose(after[key], state_a[key] + 1.0, atol=1e-5)


def test_aggregate_updates_model_in_place():
    dataset = make_synthetic_mnist(train_per_class=2, test_per_class=1,
                                   rng=np.random.default_rng(0))
    devices = make_scenario_devices({"A": 1, "B": 1},
                                    np.random.default_rng(7))
    engine = Engine(ClassificationTask(dataset, "cnn"), devices,
                    FLConfig(max_rounds=1, sync_scheme="r2sp"))
    before = engine.global_state
    plan = build_pruning_plan(engine.model, 0.0)
    shifted = {key: value + 1.0 for key, value in before.items()}
    engine.aggregate([Contribution(0, shifted, plan, global_state=before)],
                     round_index=0)
    assert np.allclose(
        engine.global_state["fc2.bias"], shifted["fc2.bias"], atol=1e-6
    )
    assert np.allclose(
        engine.model.state_dict()["fc2.bias"], shifted["fc2.bias"],
        atol=1e-6,
    )
