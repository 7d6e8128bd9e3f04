"""Differential runner: ULP arithmetic and semantics-preserving pairs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fleet as fleet_experiment
from repro.fl.config import FLConfig
from repro.verify import compare_state_sequences, ulp_distance
from tests.support.differential import (
    DivergenceError,
    differential_engine_vs_reference,
    differential_sync_vs_semisync,
    raise_if_failed,
)


# ----------------------------------------------------------------------
# ULP distance
# ----------------------------------------------------------------------
def test_ulp_distance_zero_for_identical_arrays():
    values = np.linspace(-3.0, 3.0, 7, dtype=np.float32)
    assert ulp_distance(values, values.copy()).max() == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ulp_distance_one_for_adjacent_floats(dtype):
    a = np.asarray([1.0, -2.5], dtype=dtype)
    b = np.nextafter(a, np.asarray(np.inf, dtype=dtype))
    assert ulp_distance(a, b).tolist() == [1, 1]


def test_ulp_distance_signed_zeros_are_adjacent():
    a = np.asarray([0.0], dtype=np.float32)
    b = np.asarray([-0.0], dtype=np.float32)
    assert ulp_distance(a, b).tolist() == [1]


def test_ulp_distance_spans_zero():
    # -tiny, -0.0, +0.0, +tiny are consecutive representable values
    tiny = np.asarray([5e-324], dtype=np.float64)
    assert ulp_distance(tiny, -tiny).tolist() == [3]


def test_ulp_distance_rejects_dtype_mismatch():
    with pytest.raises(TypeError, match="dtype"):
        ulp_distance(np.zeros(2, np.float32), np.zeros(2, np.float64))


def test_ulp_distance_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        ulp_distance(np.zeros(2, np.float32), np.zeros(3, np.float32))


def test_ulp_distance_rejects_integer_arrays():
    with pytest.raises(TypeError, match="float32/float64"):
        ulp_distance(np.zeros(2, np.int64), np.zeros(2, np.int64))


# ----------------------------------------------------------------------
# sequence comparison
# ----------------------------------------------------------------------
def _sequence(rounds=2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {
            "w": rng.normal(size=(2, 3)).astype(np.float32),
            "b": rng.normal(size=4).astype(np.float32),
        }
        for _ in range(rounds)
    ]


def test_compare_equal_sequences_passes():
    states = _sequence()
    copies = [{k: v.copy() for k, v in s.items()} for s in states]
    report = compare_state_sequences(states, copies)
    assert report.passed
    assert report.max_ulps == 0
    assert report.describe().endswith("OK")


def test_compare_reports_first_divergence_location():
    states_a = _sequence(rounds=3)
    states_b = [{k: v.copy() for k, v in s.items()} for s in states_a]
    states_b[1]["w"].reshape(-1)[4] += np.float32(0.25)
    report = compare_state_sequences(states_a, states_b,
                                     label_a="ref", label_b="mut")
    assert not report.passed
    divergence = report.first_divergence
    assert divergence.round_index == 1
    assert divergence.key == "w"
    assert divergence.index == 4
    assert divergence.ulps == report.max_ulps > 0
    assert "round 1" in report.describe()
    with pytest.raises(DivergenceError, match=r"w\[4\]"):
        raise_if_failed(report)


def test_compare_tolerance_absorbs_small_divergence():
    states_a = _sequence()
    states_b = [{k: v.copy() for k, v in s.items()} for s in states_a]
    bumped = np.nextafter(states_b[0]["b"][0], np.float32(np.inf))
    states_b[0]["b"][0] = bumped
    assert not compare_state_sequences(states_a, states_b).passed
    report = compare_state_sequences(states_a, states_b, tolerance_ulps=1)
    assert report.passed
    assert report.max_ulps == 1


def test_compare_fails_on_round_count_mismatch():
    states = _sequence(rounds=3)
    report = compare_state_sequences(states, states[:2])
    assert not report.passed
    assert "round counts differ" in report.describe()


def test_compare_rejects_key_mismatch():
    states_a = [{"w": np.zeros(2, np.float32)}]
    states_b = [{"v": np.zeros(2, np.float32)}]
    with pytest.raises(ValueError, match="disagree on keys"):
        compare_state_sequences(states_a, states_b)


# ----------------------------------------------------------------------
# end-to-end differential pairs
# ----------------------------------------------------------------------
def test_engine_is_bitwise_identical_to_reference(
        bench, fleet, short_config):
    report = differential_engine_vs_reference(
        lambda: bench.make_task(0.0), fleet, short_config("fedmp"),
    )
    assert report.passed, report.describe()
    assert report.max_ulps == 0


def test_sync_matches_semisync_with_infinite_deadline(
        bench, fleet, short_config):
    report = differential_sync_vs_semisync(
        lambda: bench.make_task(0.0), fleet, short_config("fedmp"),
    )
    # the float64 accumulator makes the reordered float32 sums exact
    assert report.passed, report.describe()
    assert report.max_ulps == 0


def test_semisync_differential_rejects_non_sync_base(
        bench, fleet, short_config):
    config = short_config("fedmp", semi_sync_deadline_s=120.0)
    with pytest.raises(ValueError, match="synchronous base"):
        differential_sync_vs_semisync(
            lambda: bench.make_task(0.0), fleet, config,
        )


def test_fleet_shaped_engine_is_bitwise_identical_to_reference():
    """The shape perf's ``fleet_cohort`` workload runs: a fleet sampled
    per round, cluster-scope E-UCB, clipping on -- so every round trains
    two stacked cohorts of ~48 members, each walked in many clip-norm
    blocks -- against the per-member oracle.  Under the default
    ``clip_norm`` these three rounds hold steps that clip every member,
    some members, and none."""
    config = FLConfig(
        strategy="fedmp", strategy_kwargs={"scope": "cluster"},
        max_rounds=3, local_iterations=2, batch_size=8, eval_every=3,
        seed=17, clients_per_round=96,
    )
    assert config.clip_norm is not None
    report = differential_engine_vs_reference(
        fleet_experiment.make_task, fleet_experiment.make_fleet(300), config,
    )
    assert report.passed, report.describe()
    assert report.max_ulps == 0
