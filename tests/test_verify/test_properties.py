"""Property tests: the aggregation fold and scatter helpers against
dense reference oracles.

Fuzzes over the generators in :mod:`repro.verify.strategies`:
well-formed pruning plans on layer-chain templates of every plan kind
(linear, conv + bn, lstm -- so ``w_ih`` / ``w_hh`` and their stacked
gate rows go through the same checks), random state
dicts, and heterogeneous device fleets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import Contribution, R2SPAggregator, make_aggregator
from repro.pruning.masks import residual_state_dict
from repro.pruning.plan import PruningPlan
from repro.pruning.structured import (
    recover_state_dict,
    scatter_add_param,
)
from repro.verify.oracle import dense_aggregate
from tests.support.strategies import (
    chain_scenarios,
    pruning_ratios,
    state_dicts,
    worker_fleets,
)


@settings(max_examples=50, deadline=None)
@given(scenario=chain_scenarios())
def test_scatter_add_matches_dense_recovery(scenario):
    """The aggregator's scatter-add accumulation of a sub-model is
    bitwise the dense zero-expansion reference, for any plan/weight."""
    template, plan, sub_state, weight = scenario
    planned = plan.param_names()
    accumulator = {
        key: np.zeros_like(value, dtype=np.float64)
        for key, value in template.items()
    }
    for key, (layer, suffix) in planned.items():
        scatter_add_param(accumulator[key], suffix, plan[layer],
                          sub_state[key], weight)
    recovered = recover_state_dict(sub_state, plan, template)
    for key in planned:
        # mirror the dense path's arithmetic exactly: a float32 product
        # accumulated into a float64 buffer
        expected = np.zeros_like(template[key], dtype=np.float64)
        expected += weight * recovered[key]
        np.testing.assert_array_equal(accumulator[key], expected)


@settings(max_examples=50, deadline=None)
@given(scenario=chain_scenarios(), scheme=st.sampled_from(("r2sp", "bsp")))
def test_aggregate_matches_dense_aggregate(scenario, scheme):
    """One trained contribution folded by the aggregator equals the
    dense zero-expansion (+ materialised residual under R2SP), compared
    as ``uint64`` views so a signed zero would show."""
    template, plan, sub_state, weight = scenario
    trained = {key: value - np.float32(weight)
               for key, value in sub_state.items()}
    contribution = Contribution(worker_id=0, sub_state=trained, plan=plan,
                                global_state=template)
    aggregator = make_aggregator(scheme)
    result = aggregator.aggregate([contribution], template)
    expected = dense_aggregate(aggregator, [contribution], template)
    for key in template:
        np.testing.assert_array_equal(result[key].view(np.uint64),
                                      expected[key].view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(scenario=chain_scenarios())
def test_recovery_plus_residual_reconstructs_the_global_state(scenario):
    """R2SP's core identity: an untrained sub-model plus its residual
    is exactly the global state (every position carries either its
    dispatched value or its pre-round global value)."""
    template, plan, sub_state, _ = scenario
    recovered = recover_state_dict(sub_state, plan, template)
    residual = residual_state_dict(template, plan)
    for key in plan.param_names():
        np.testing.assert_array_equal(recovered[key] + residual[key],
                                      template[key])


@settings(max_examples=30, deadline=None)
@given(scenario=chain_scenarios())
def test_single_untrained_contribution_is_a_fixed_point(scenario):
    """Aggregating one contribution that uploaded exactly what was
    dispatched reproduces the global state bit for bit."""
    template, plan, sub_state, _ = scenario
    contribution = Contribution(worker_id=0, sub_state=sub_state,
                                plan=plan, global_state=template)
    result = R2SPAggregator().aggregate([contribution], template)
    for key, value in template.items():
        np.testing.assert_array_equal(
            result[key].astype(value.dtype), value)


@settings(max_examples=40, deadline=None)
@given(state=state_dicts(), position=st.integers(0, 10 ** 6))
def test_poison_scan_finds_any_single_nan(state, position):
    """The aggregator's finiteness scan catches a NaN planted at any
    position of any array, and passes the clean original."""
    aggregator = R2SPAggregator()
    clean = Contribution(worker_id=0, sub_state=state,
                         plan=PruningPlan(ratio=0.0))
    assert aggregator._poisoned_entry(clean) is None

    poisoned = {key: value.copy() for key, value in state.items()}
    victim = sorted(poisoned)[position % len(poisoned)]
    flat = poisoned[victim].reshape(-1)
    flat[position % flat.size] = np.nan
    dirty = Contribution(worker_id=0, sub_state=poisoned,
                         plan=PruningPlan(ratio=0.0))
    assert aggregator._poisoned_entry(dirty) == victim


@settings(max_examples=30, deadline=None)
@given(ratio=pruning_ratios())
def test_pruning_ratio_strategy_stays_in_range(ratio):
    assert 0.0 <= ratio <= 0.8


@settings(max_examples=20, deadline=None)
@given(fleet=worker_fleets())
def test_worker_fleet_strategy_is_well_formed(fleet):
    assert [device.device_id for device in fleet] == list(range(len(fleet)))
    for device in fleet:
        assert 10.0 ** 6 <= device.bandwidth_bps <= 10.0 ** 8
        assert device.cluster in ("A", "B")
