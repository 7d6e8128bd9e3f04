"""Sparse / residual models and the R2SP aggregation identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import build_cnn
from repro.pruning import (
    build_pruning_plan,
    extract_submodel,
    recover_state_dict,
    residual_state_dict,
    sparse_state_dict,
)


@pytest.fixture
def model_and_plan(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)
    return model, plan


def test_sparse_zeroes_exactly_the_pruned_positions(model_and_plan):
    model, plan = model_and_plan
    sparse = sparse_state_dict(model.state_dict(), plan)
    entry = plan["conv1"]
    weight = sparse["conv1.weight"]
    pruned = np.setdiff1d(np.arange(entry.out_full), entry.kept_out)
    assert np.all(weight[pruned] == 0.0)
    assert np.allclose(
        weight[entry.kept_out], model.get("conv1").params["weight"][entry.kept_out]
    )


def test_residual_plus_sparse_equals_global(model_and_plan):
    model, plan = model_and_plan
    state = model.state_dict()
    sparse = sparse_state_dict(state, plan)
    residual = residual_state_dict(state, plan)
    for key in state:
        assert np.allclose(sparse[key] + residual[key], state[key]), key


def test_residual_zero_on_kept_positions(model_and_plan):
    model, plan = model_and_plan
    residual = residual_state_dict(model.state_dict(), plan)
    entry = plan["conv1"]
    pruned = np.setdiff1d(np.arange(entry.out_full), entry.kept_out)
    assert np.all(residual["conv1.bias"][entry.kept_out] == 0.0)
    assert np.all(
        residual["conv1.bias"][pruned]
        == model.get("conv1").params["bias"][pruned]
    )


def test_r2sp_identity_recovered_plus_residual(rng, model_and_plan):
    """recovered(sub) + residual == global at dispatch time.

    This is the invariant that makes R2SP keep 'a rather complete model
    structure': untrained (pruned) positions carry the old global value.
    """
    model, plan = model_and_plan
    state = model.state_dict()
    sub = extract_submodel(model, plan, rng=rng)
    recovered = recover_state_dict(sub.state_dict(), plan, state)
    residual = residual_state_dict(state, plan)
    for key in state:
        assert np.allclose(recovered[key] + residual[key], state[key]), key


def test_identity_plan_sparse_is_noop(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.0)
    sparse = sparse_state_dict(model.state_dict(), plan)
    for key, value in model.state_dict().items():
        assert np.allclose(sparse[key], value)
    residual = residual_state_dict(model.state_dict(), plan)
    for value in residual.values():
        assert np.all(value == 0.0)
