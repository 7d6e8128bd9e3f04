"""Percentile / sample-count rule and the spread statistic."""

import statistics

import pytest

from harness import stats


@pytest.mark.parametrize("count, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 100.0) == 4.0
    assert stats.percentile(values, 50.0) == 2.5
    assert stats.percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)
    with pytest.raises(ValueError):
        stats.percentile(values, 101.0)


def test_summary_states_the_sample_count():
    summary = stats.summarise([3.0, 1.0, 2.0])
    assert summary == {"median": 2.0, "min": 1.0, "max": 3.0, "n": 3,
                       "values": [3.0, 1.0, 2.0]}


def test_iqr_share_is_the_contract_spread():
    values = [10.0, 10.2, 9.9, 10.4, 9.7, 10.1, 10.0, 10.3, 9.8, 10.05]
    q1, _, q3 = statistics.quantiles(values, n=4)
    expected = (q3 - q1) / statistics.median(values)
    assert stats.iqr_share(values) == pytest.approx(expected)
    assert stats.iqr_share([1.0]) is None
    assert stats.iqr_share([0.0, 0.0, 0.0]) is None
