"""Training history reductions (the figure/table primitives)."""

from __future__ import annotations

import pytest

from repro.fl.history import RoundRecord, TrainingHistory


def _record(i, t, metric):
    return RoundRecord(
        round_index=i, sim_time_s=t, round_time_s=t if i == 0 else 1.0,
        metric=metric, eval_loss=None, train_loss=1.0, ratios={},
        completion_times={},
    )


@pytest.fixture
def history():
    h = TrainingHistory(strategy="fedmp", model_name="cnn/mnist")
    for i, (t, metric) in enumerate(
        [(10, 0.2), (20, None), (30, 0.5), (40, 0.8), (50, 0.9)]
    ):
        h.append(_record(i, t, metric))
    return h


def test_time_to_target(history):
    assert history.time_to_target(0.5) == 30
    assert history.time_to_target(0.85) == 50
    assert history.time_to_target(0.99) is None


def test_metric_at_time(history):
    assert history.metric_at_time(35) == 0.5
    assert history.metric_at_time(5) is None
    assert history.metric_at_time(100) == 0.9


def test_final_metric_skips_unevaluated(history):
    assert history.final_metric() == 0.9


def test_curves(history):
    curve = history.accuracy_curve()
    assert curve[0] == (10, 0.2)
    assert len(curve) == 4  # round with metric=None excluded
    rounds = history.round_curve()
    assert rounds[0] == (0, 0.2)


def test_lower_is_better_mode():
    h = TrainingHistory(strategy="fedmp", model_name="lstm/ptb",
                        higher_is_better=False)
    for i, (t, ppl) in enumerate([(10, 300.0), (20, 180.0), (30, 140.0)]):
        h.append(_record(i, t, ppl))
    assert h.time_to_target(150.0) == 30
    assert h.metric_at_time(25) == 180.0


def test_mean_round_time_and_total(history):
    assert history.total_time_s == 50
    assert history.mean_round_time() == pytest.approx((10 + 4) / 5)


def test_empty_history():
    h = TrainingHistory(strategy="x", model_name="y")
    assert h.final_metric() is None
    assert h.total_time_s == 0.0
    assert h.mean_round_time() == 0.0


def test_percentile_round_time(history):
    # durations are [10, 1, 1, 1, 1]
    assert history.percentile_round_time(0) == 1.0
    assert history.percentile_round_time(50) == 1.0
    assert history.percentile_round_time(100) == 10.0
    # p75 interpolates between the 3rd and 4th order statistics (1, 10)
    assert history.percentile_round_time(75) == pytest.approx(1.0)
    assert history.percentile_round_time(95) == pytest.approx(
        1.0 + 0.8 * 9.0
    )


def test_percentile_round_time_validates_and_degenerates():
    h = TrainingHistory(strategy="x", model_name="y")
    assert h.percentile_round_time(95) == 0.0
    h.append(_record(0, 7.0, None))
    assert h.percentile_round_time(50) == 7.0
    with pytest.raises(ValueError):
        h.percentile_round_time(101)
    with pytest.raises(ValueError):
        h.percentile_round_time(-5)


def test_total_overhead(history):
    for i, record in enumerate(history.rounds):
        record.overhead_s = 0.01 * (i + 1)
    assert history.total_overhead_s == pytest.approx(0.15)
