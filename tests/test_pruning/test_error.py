"""Pruning error Q_n^k (Theorem 1's key quantity)."""

from __future__ import annotations

import numpy as np

from repro.models import build_cnn
from repro.pruning import build_pruning_plan, pruning_error


def test_error_zero_at_ratio_zero(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.0)
    assert pruning_error(model.state_dict(), plan) == 0.0


def test_error_monotone_in_ratio(rng):
    """More pruning -> larger Q (the trade-off Theorem 1 formalises)."""
    model = build_cnn(rng=rng)
    previous = -1.0
    for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
        error = pruning_error(
            model.state_dict(), build_pruning_plan(model, ratio)
        )
        assert error > previous
        previous = error


def test_error_equals_sum_of_pruned_squares(rng):
    model = build_cnn(rng=rng)
    plan = build_pruning_plan(model, 0.5)
    state = model.state_dict()
    error = pruning_error(state, plan)
    norm = sum(float((value ** 2).sum()) for value in state.values())
    from repro.pruning.masks import sparse_state_dict

    sparse_norm = sum(
        float((value ** 2).sum())
        for value in sparse_state_dict(state, plan).values()
    )
    assert np.isclose(error, norm - sparse_norm, rtol=1e-5)
