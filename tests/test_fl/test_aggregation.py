"""Aggregator classes: uniform and sample-count-weighted semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.aggregation import (
    AGGREGATORS,
    AggregationError,
    BSPAggregator,
    Contribution,
    DuplicateContributionError,
    EmptyRoundError,
    PoisonedUpdateError,
    R2SPAggregator,
    WeightedBSPAggregator,
    WeightedR2SPAggregator,
    make_aggregator,
)
from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry import MetricsRegistry
from repro.models import build_cnn
from repro.pruning import (
    build_pruning_plan,
    extract_submodel,
    recover_state_dict,
    residual_state_dict,
)
from repro.verify.oracle import dense_aggregate


def _identity_contribution(model, worker_id, shift, num_samples=1):
    """Full-model (ratio 0) contribution whose state is global + shift."""
    plan = build_pruning_plan(model, 0.0)
    global_state = model.state_dict()
    state = {k: v + shift for k, v in global_state.items()}
    return Contribution(worker_id=worker_id, sub_state=state, plan=plan,
                        num_samples=num_samples, global_state=global_state)


def _pruned_contribution(model, ratio, rng, num_samples=1, worker_id=0):
    plan = build_pruning_plan(model, ratio)
    sub = extract_submodel(model, plan, rng=rng)
    return Contribution(worker_id=worker_id, sub_state=sub.state_dict(),
                        plan=plan, num_samples=num_samples,
                        global_state=model.state_dict())


def test_registry_covers_all_schemes():
    assert set(AGGREGATORS) == {
        "r2sp", "bsp", "r2sp_weighted", "bsp_weighted",
    }
    assert isinstance(make_aggregator("r2sp"), R2SPAggregator)
    assert isinstance(make_aggregator("bsp_weighted"), WeightedBSPAggregator)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown aggregation scheme"):
        make_aggregator("asp")


def test_residual_requirements():
    assert R2SPAggregator.needs_residual
    assert WeightedR2SPAggregator.needs_residual
    assert not BSPAggregator.needs_residual
    assert not WeightedBSPAggregator.needs_residual


def test_uniform_matches_plain_mean(rng):
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _identity_contribution(model, 0, 0.0),
        _identity_contribution(model, 1, 2.0),
    ]
    after = R2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.allclose(after[key], template[key] + 1.0, atol=1e-5)


def test_weighted_mean_uses_sample_counts(rng):
    """Weights 1 and 3 pull the average 3/4 of the way to worker 1."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _identity_contribution(model, 0, 0.0, num_samples=1),
        _identity_contribution(model, 1, 4.0, num_samples=3),
    ]
    after = WeightedR2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.allclose(after[key], template[key] + 3.0, atol=1e-5)


def test_weighted_reduces_to_uniform_on_equal_shards(rng):
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _identity_contribution(model, 0, 0.0, num_samples=7),
        _identity_contribution(model, 1, 2.0, num_samples=7),
    ]
    uniform = R2SPAggregator().aggregate(contributions, template)
    weighted = WeightedR2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.allclose(uniform[key], weighted[key], atol=1e-7)


def test_weighted_r2sp_identity_on_untrained_submodels(rng):
    """The R2SP invariant survives weighting: untrained sub-models with
    arbitrary sample counts aggregate back to the global model."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _pruned_contribution(model, ratio, rng, num_samples=count,
                             worker_id=worker_id)
        for worker_id, (ratio, count)
        in enumerate(((0.0, 2), (0.3, 9), (0.6, 4)))
    ]
    after = WeightedR2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.allclose(after[key], template[key], atol=1e-6), key


def test_weighted_renormalises_over_participants(rng):
    """A partial round (one participant) returns that participant's
    model regardless of its absolute sample count."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    lone = _identity_contribution(model, 3, 1.5, num_samples=42)
    after = WeightedBSPAggregator().aggregate([lone], template)
    for key in template:
        assert np.allclose(after[key], template[key] + 1.5, atol=1e-5)


def test_bsp_counts_a_pruned_position_as_zero(rng):
    """BSP (PAPER.md section 1): a position a worker pruned away enters
    the average as zero, not as the global value.  A lone ratio-0.5
    upload comes back as its own values where it kept them and exact
    zeros everywhere else."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    plan = build_pruning_plan(model, 0.5)
    sub = extract_submodel(model, plan, rng=rng)
    kept = {key: value + 1.0 for key, value in sub.state_dict().items()}
    lone = Contribution(worker_id=0, sub_state=kept, plan=plan,
                        num_samples=1)
    after = BSPAggregator().aggregate([lone], template)
    assert any(kept[key].size < value.size for key, value in template.items())
    for key, value in after.items():
        values = value[value != 0]
        assert values.size == np.count_nonzero(kept[key]), key
        np.testing.assert_array_equal(
            np.sort(values), np.sort(kept[key][kept[key] != 0]), err_msg=key)


def test_empty_contributions_rejected(rng):
    with pytest.raises(ValueError, match="empty contribution"):
        R2SPAggregator().aggregate([], {})


def test_non_positive_weight_rejected(rng):
    model = build_cnn(rng=rng)
    bad = _identity_contribution(model, 0, 0.0, num_samples=0)
    with pytest.raises(ValueError, match="non-positive"):
        WeightedBSPAggregator().aggregate([bad], model.state_dict())


def test_zero_weight_contribution_is_skipped(rng):
    """Regression: an empty shard (num_samples=0) must not crash the
    round; the zero-weight contribution simply carries no signal."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _identity_contribution(model, 0, 0.0, num_samples=2),
        _identity_contribution(model, 1, 4.0, num_samples=2),
        _identity_contribution(model, 2, 100.0, num_samples=0),  # empty shard
    ]
    after = WeightedR2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.allclose(after[key], template[key] + 2.0, atol=1e-5)


def test_all_zero_weights_rejected(rng):
    model = build_cnn(rng=rng)
    contributions = [
        _identity_contribution(model, i, 0.0, num_samples=0) for i in range(3)
    ]
    with pytest.raises(ValueError, match="non-positive"):
        WeightedBSPAggregator().aggregate(contributions, model.state_dict())


def test_negative_weight_rejected(rng):
    model = build_cnn(rng=rng)
    bad = _identity_contribution(model, 0, 0.0, num_samples=-3)
    with pytest.raises(ValueError, match="negative"):
        WeightedBSPAggregator().aggregate([bad], model.state_dict())


def _trained_pruned_contribution(model, worker_id, ratio, shift, rng,
                                 num_samples=1):
    """Pruned contribution whose sub-state was 'trained' (shifted)."""
    plan = build_pruning_plan(model, ratio)
    sub = extract_submodel(model, plan, rng=rng)
    sub_state = {k: v + shift for k, v in sub.state_dict().items()}
    return Contribution(worker_id=worker_id, sub_state=sub_state, plan=plan,
                        num_samples=num_samples,
                        global_state=model.state_dict())


@pytest.mark.parametrize("scheme", sorted(AGGREGATORS))
def test_scatter_path_matches_dense_path_bitwise(scheme, rng):
    """The in-place scatter-add path must reproduce the reference
    dense (zero-expansion) oracle bit for bit."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    extract_rng = np.random.default_rng(7)
    contributions = [
        _trained_pruned_contribution(model, i, ratio, shift, extract_rng,
                                     num_samples=count)
        for i, (ratio, shift, count) in enumerate(
            ((0.0, 0.125, 2), (0.3, -0.5, 9), (0.6, 1.0, 4))
        )
    ]
    aggregator = make_aggregator(scheme)
    dense = dense_aggregate(aggregator, contributions, template)
    fast = aggregator.aggregate(contributions, template)
    _assert_bits_equal(dense, fast)


def _assert_bits_equal(expected, actual):
    """Equal as ``uint64`` views: ``-0.0`` and ``+0.0`` differ."""
    assert set(expected) == set(actual)
    for key in expected:
        np.testing.assert_array_equal(expected[key].view(np.uint64),
                                      actual[key].view(np.uint64),
                                      err_msg=key)


def _with_negative_zeros(state, rng):
    """A copy of ``state`` with about 2 % of every array set to -0.0."""
    signed = {}
    for key, value in state.items():
        value = value.copy()
        flat = value.reshape(-1)
        flat[rng.random(flat.size) < 0.02] = -0.0
        signed[key] = value
    return signed


@pytest.mark.parametrize("scheme", sorted(AGGREGATORS))
def test_mixed_round_with_a_cohort_matches_dense_path_bitwise(scheme, rng):
    """One round mixing a 3-member cohort (one plan object, one global
    snapshot, unit weights) with two single members at other ratios,
    some uploads holding -0.0: the production fold equals the dense
    zero-expansion + residual reference bit for bit."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    snapshot = {key: value.copy() for key, value in template.items()}
    extract_rng = np.random.default_rng(7)
    plan = build_pruning_plan(model, 0.4)
    base = extract_submodel(model, plan, rng=extract_rng).state_dict()
    contributions = [
        Contribution(
            worker_id=worker_id,
            sub_state=_with_negative_zeros(
                {key: value + np.float32(0.25 * worker_id - 0.3)
                 for key, value in base.items()}, rng),
            plan=plan, num_samples=1, global_state=snapshot,
        )
        for worker_id in range(3)
    ]
    for worker_id, (ratio, shift, count) in enumerate(
            ((0.2, -0.75, 5), (0.6, 0.5, 3)), start=3):
        single = _trained_pruned_contribution(
            model, worker_id, ratio, shift, extract_rng, num_samples=count)
        single.sub_state = _with_negative_zeros(single.sub_state, rng)
        single.global_state = snapshot
        contributions.append(single)

    aggregator = make_aggregator(scheme)
    aggregator.metrics = MetricsRegistry()
    dense = dense_aggregate(aggregator, contributions, template)
    fast = aggregator.aggregate(contributions, template)
    _assert_bits_equal(dense, fast)
    assert aggregator.metrics.counter(
        "aggregate_cohort_partial_sums_total").value == 1


@pytest.mark.parametrize("round_kind", ["cohort", "singleton"])
@pytest.mark.parametrize("scheme", sorted(AGGREGATORS))
def test_unit_weight_fold_skips_nothing_but_the_multiply(scheme, round_kind,
                                                         rng):
    """The fold leaves out ``recovered *= 1.0``; the dense reference,
    which multiplies every member by its weight, must still agree bit
    for bit, ``-0.0`` included: on a round that is one unit-weight
    cohort, and on a round of one member (weight 4 under the weighted
    schemes, which keep the multiply)."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    plan = build_pruning_plan(model, 0.4)
    base = extract_submodel(model, plan,
                            rng=np.random.default_rng(7)).state_dict()
    members, count = (3, 1) if round_kind == "cohort" else (1, 4)
    contributions = [
        Contribution(
            worker_id=worker_id,
            sub_state=_with_negative_zeros(
                {key: value + np.float32(0.5 * worker_id - 0.25)
                 for key, value in base.items()}, rng),
            plan=plan, num_samples=count, global_state=template,
        )
        for worker_id in range(members)
    ]
    aggregator = make_aggregator(scheme)
    _assert_bits_equal(dense_aggregate(aggregator, contributions, template),
                       aggregator.aggregate(contributions, template))


def test_global_state_residual_matches_materialised_residual(rng):
    """Folding the residual from the shared global snapshot equals
    adding each contribution's materialised residual model, bit for
    bit."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    contributions = [
        _trained_pruned_contribution(model, i, ratio, shift,
                                     np.random.default_rng(11 + i))
        for i, (ratio, shift) in enumerate(((0.25, 0.5), (0.5, -0.25)))
    ]
    expected = {key: np.zeros_like(value, dtype=np.float64)
                for key, value in template.items()}
    for contribution in contributions:
        recovered = recover_state_dict(contribution.sub_state,
                                       contribution.plan, template)
        residual = residual_state_dict(contribution.global_state,
                                       contribution.plan)
        for key in expected:
            expected[key] += recovered[key]
            expected[key] += residual[key]
    after = R2SPAggregator().aggregate(contributions, template)
    for key in template:
        assert np.array_equal(after[key], expected[key] / 2.0), key


def test_missing_residual_rejected(rng):
    model = build_cnn(rng=rng)
    contribution = _identity_contribution(model, 0, 0.0)
    contribution.global_state = None
    with pytest.raises(ValueError, match="residual"):
        WeightedR2SPAggregator().aggregate([contribution],
                                           model.state_dict())


def _engine(**kwargs):
    dataset = make_synthetic_mnist(train_per_class=2, test_per_class=1,
                                   rng=np.random.default_rng(0))
    devices = make_scenario_devices({"A": 1, "B": 1},
                                    np.random.default_rng(7))
    return Engine(ClassificationTask(dataset, "cnn"), devices,
                  FLConfig(max_rounds=1), **kwargs)


def test_server_default_aggregator_is_r2sp():
    assert isinstance(_engine().aggregator, R2SPAggregator)


def test_server_apply_uses_injected_aggregator():
    engine = _engine(aggregator=WeightedR2SPAggregator())
    model = engine.model
    before = model.state_dict()
    contributions = [
        _identity_contribution(model, 0, 0.0, num_samples=1),
        _identity_contribution(model, 1, 4.0, num_samples=3),
    ]
    engine.aggregate(contributions, round_index=0)
    after = engine.global_state
    for key in before:
        assert np.allclose(after[key], before[key] + 3.0, atol=1e-5)


# ----------------------------------------------------------------------
# typed failures: duplicates and NaN/Inf-poisoned uploads
# ----------------------------------------------------------------------
def _poison(contribution, value=np.nan):
    key = sorted(contribution.sub_state)[0]
    contribution.sub_state[key] = contribution.sub_state[key].copy()
    contribution.sub_state[key].reshape(-1)[0] = value
    return contribution


def test_duplicate_worker_ids_rejected(rng):
    model = build_cnn(rng=rng)
    contributions = [
        _identity_contribution(model, 7, 0.0),
        _identity_contribution(model, 7, 1.0),
    ]
    with pytest.raises(DuplicateContributionError, match="worker 7"):
        R2SPAggregator().aggregate(contributions, model.state_dict())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_poisoned_update_rejected_by_default(bad, rng):
    model = build_cnn(rng=rng)
    contributions = [
        _identity_contribution(model, 0, 0.0),
        _poison(_identity_contribution(model, 1, 1.0), bad),
    ]
    with pytest.raises(PoisonedUpdateError, match="worker 1"):
        R2SPAggregator().aggregate(contributions, model.state_dict())


def test_poisoned_update_skipped_and_counted_under_skip_policy(rng):
    model = build_cnn(rng=rng)
    template = model.state_dict()
    clean = [
        _identity_contribution(model, 0, 0.0),
        _identity_contribution(model, 1, 2.0),
    ]
    poisoned = clean + [_poison(_identity_contribution(model, 2, 9.0))]
    aggregator = make_aggregator("r2sp", nan_policy="skip")
    aggregator.metrics = MetricsRegistry(enabled=True)
    after = aggregator.aggregate(poisoned, template)
    expected = R2SPAggregator().aggregate(clean, template)
    for key in template:
        assert np.array_equal(after[key], expected[key])
    skipped = [c for c in aggregator.metrics.counters
               if c.name == "poisoned_updates_total"]
    assert len(skipped) == 1
    assert skipped[0].value == 1
    assert skipped[0].labels == {"worker": 2}


def test_all_poisoned_contributions_leave_an_empty_round(rng):
    model = build_cnn(rng=rng)
    aggregator = make_aggregator("r2sp", nan_policy="skip")
    with pytest.raises(EmptyRoundError):
        aggregator.aggregate(
            [_poison(_identity_contribution(model, 0, 0.0))],
            model.state_dict(),
        )


def test_nan_policy_off_propagates_poison(rng):
    """Documents what the guard protects against: without the scan a
    single NaN reaches the aggregated global state."""
    model = build_cnn(rng=rng)
    aggregator = make_aggregator("r2sp", nan_policy="off")
    after = aggregator.aggregate(
        [
            _identity_contribution(model, 0, 0.0),
            _poison(_identity_contribution(model, 1, 1.0)),
        ],
        model.state_dict(),
    )
    assert any(np.isnan(value).any() for value in after.values())


def test_make_aggregator_validates_nan_policy():
    with pytest.raises(ValueError, match="nan_policy"):
        make_aggregator("r2sp", nan_policy="ignore")


def test_typed_errors_remain_value_errors():
    for error in (AggregationError, EmptyRoundError,
                  DuplicateContributionError, PoisonedUpdateError):
        assert issubclass(error, ValueError)


# ----------------------------------------------------------------------
# fold first, scan on failure
# ----------------------------------------------------------------------
def _cohort_round(rng, members=4):
    """``members`` unit-weight contributions of one dispatched cohort
    (one plan object, one snapshot), then one singleton at another
    ratio: two fold groups."""
    model = build_cnn(rng=rng)
    template = model.state_dict()
    snapshot = {key: value.copy() for key, value in template.items()}
    plan = build_pruning_plan(model, 0.4)
    base = extract_submodel(model, plan,
                            rng=np.random.default_rng(7)).state_dict()
    contributions = [
        Contribution(worker_id=worker_id,
                     sub_state={key: value + np.float32(0.125 * worker_id)
                                for key, value in base.items()},
                     plan=plan, num_samples=1, global_state=snapshot)
        for worker_id in range(members)
    ]
    single = _trained_pruned_contribution(model, members, 0.2, -0.5,
                                          np.random.default_rng(8))
    single.global_state = snapshot
    return template, contributions + [single]


def _cohort_metrics(aggregator):
    counters = [c.value for c in aggregator.metrics.counters
                if c.name == "aggregate_cohort_partial_sums_total"]
    histograms = [h.count for h in aggregator.metrics.histograms
                  if h.name == "aggregate_scatter_add_s"]
    return sum(counters), sum(histograms)


def _poisoned_counts(aggregator):
    return {c.labels["worker"]: c.value for c in aggregator.metrics.counters
            if c.name == "poisoned_updates_total"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", ["r2sp", "bsp"])
def test_a_poisoned_cohort_member_raises_naming_the_first_in_order(
        scheme, bad, rng):
    template, contributions = _cohort_round(rng)
    _poison(contributions[2], bad)
    _poison(contributions[4], bad)             # the later singleton
    aggregator = make_aggregator(scheme)
    aggregator.metrics = MetricsRegistry()
    with pytest.raises(PoisonedUpdateError,
                       match=r"^worker 2 uploaded non-finite values in"):
        aggregator.aggregate(contributions, template)
    # the folded-then-rejected pass counts nothing
    assert _cohort_metrics(aggregator) == (0, 0)


@pytest.mark.parametrize("scheme", sorted(AGGREGATORS))
def test_a_skipped_cohort_member_leaves_the_scan_first_bytes(scheme, rng):
    template, contributions = _cohort_round(rng)
    _poison(contributions[1], np.inf)
    aggregator = make_aggregator(scheme, nan_policy="skip")
    aggregator.metrics = MetricsRegistry()
    after = aggregator.aggregate(contributions, template)

    clean = make_aggregator(scheme)
    clean.metrics = MetricsRegistry()
    expected = clean.aggregate(
        [c for c in contributions if c.worker_id != 1], template)
    _assert_bits_equal(expected, after)
    _assert_bits_equal(dense_aggregate(aggregator, contributions, template),
                       after)
    assert _poisoned_counts(aggregator) == {1: 1}
    # one cohort group in the kept fold, counted once
    assert _cohort_metrics(aggregator) == _cohort_metrics(clean) == (1, 1)


def test_a_clean_round_skips_the_per_member_scan(rng, monkeypatch):
    template, contributions = _cohort_round(rng)
    scanned = []
    entry = R2SPAggregator._poisoned_entry

    def counting(self, contribution):
        scanned.append(contribution.worker_id)
        return entry(self, contribution)

    monkeypatch.setattr(R2SPAggregator, "_poisoned_entry", counting)
    after = R2SPAggregator().aggregate(contributions, template)
    assert scanned == []
    _assert_bits_equal(
        dense_aggregate(R2SPAggregator(), contributions, template), after)
    scanned.clear()
    _poison(contributions[3])
    with pytest.raises(PoisonedUpdateError, match="worker 3"):
        R2SPAggregator().aggregate(contributions, template)
    assert scanned == [0, 1, 2, 3]


@pytest.mark.parametrize("policy", ["raise", "skip"])
def test_a_key_outside_the_template_is_still_checked(policy, rng):
    """The fold never reads an uploaded entry the template lacks, so its
    finiteness is checked on its own."""
    template, contributions = _cohort_round(rng)
    contributions[2].sub_state["stray"] = np.array([1.0, np.nan],
                                                   dtype=np.float32)
    contributions[3].sub_state["stray"] = np.ones(2, dtype=np.float32)
    aggregator = make_aggregator("r2sp", nan_policy=policy)
    aggregator.metrics = MetricsRegistry()
    if policy == "raise":
        with pytest.raises(PoisonedUpdateError,
                           match="worker 2 .* in 'stray'"):
            aggregator.aggregate(contributions, template)
        return
    after = aggregator.aggregate(contributions, template)
    assert _poisoned_counts(aggregator) == {2: 1}
    expected = R2SPAggregator().aggregate(
        [c for c in contributions if c.worker_id != 2], template)
    _assert_bits_equal(expected, after)


@pytest.mark.parametrize("policy", ["raise", "skip", "off"])
def test_a_non_finite_global_state_is_not_a_poisoned_upload(policy, rng):
    """R2SP's base is the pre-round global state: a NaN there at a pruned
    position makes the accumulator non-finite with every upload clean.
    The scan-first pass then finds nothing and returns the same fold."""
    template, contributions = _cohort_round(rng)
    snapshot = contributions[0].global_state
    plan = contributions[0].plan
    key = "conv1.weight"
    kept = set(plan["conv1"].kept_out.tolist())
    pruned = next(i for i in range(template[key].shape[0]) if i not in kept)
    snapshot[key][pruned] = np.nan
    aggregator = make_aggregator("r2sp", nan_policy=policy)
    aggregator.metrics = MetricsRegistry()
    after = aggregator.aggregate(contributions, template)
    assert np.isnan(after[key]).any()
    expected = dense_aggregate(aggregator, contributions, template)
    _assert_bits_equal(expected, after)
    assert _poisoned_counts(aggregator) == {}
    assert _cohort_metrics(aggregator) == (1, 1)


@pytest.mark.parametrize("policy, error", [
    ("raise", PoisonedUpdateError), ("skip", AggregationError)])
def test_an_unscanned_pass_that_raises_keeps_the_scan_first_error(
        policy, error, rng):
    """A poisoned upload before a negative weight: scan-first rejects
    the poison (``raise``) or skips and counts it before meeting the
    weight (``skip``); the fold-first round must do the same."""
    model = build_cnn(rng=rng)
    contributions = [
        _poison(_identity_contribution(model, 0, 0.0, num_samples=2)),
        _identity_contribution(model, 1, 1.0, num_samples=-1),
    ]
    aggregator = make_aggregator("r2sp_weighted", nan_policy=policy)
    aggregator.metrics = MetricsRegistry()
    with pytest.raises(error, match="worker 0" if policy == "raise"
                       else "negative aggregation weight"):
        aggregator.aggregate(contributions, model.state_dict())
    assert _poisoned_counts(aggregator) == ({0: 1} if policy == "skip"
                                            else {})
