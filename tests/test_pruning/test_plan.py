"""PruningPlan bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pruning.plan import LayerPrune, PruningPlan, keep_count


def test_keep_count_bounds():
    assert keep_count(10, 0.0) == 10
    assert keep_count(10, 0.25) == 8
    assert keep_count(10, 0.95) == 1
    assert keep_count(1, 0.9) == 1


def test_keep_count_rejects_out_of_range():
    with pytest.raises(ValueError):
        keep_count(10, 1.0)
    with pytest.raises(ValueError):
        keep_count(10, -0.1)


def test_layer_prune_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LayerPrune(kind="attention", kept_out=np.array([0]), out_full=1)


def test_plan_duplicate_entry_raises():
    plan = PruningPlan(ratio=0.5)
    entry = LayerPrune(kind="bn", kept_out=np.arange(2), out_full=2)
    plan.add("bn1", entry)
    with pytest.raises(ValueError):
        plan.add("bn1", entry)


def test_plan_lookup_and_contains():
    plan = PruningPlan(ratio=0.3)
    entry = LayerPrune(kind="bn", kept_out=np.arange(2), out_full=2)
    plan.add("bn1", entry)
    assert "bn1" in plan
    assert plan["bn1"] is entry
    assert plan.get("missing") is None
