"""OpenMetrics rendering: spec compliance proven by a strict parser."""

from __future__ import annotations

import math

import pytest

from repro.telemetry import MetricsRegistry, render_openmetrics
from repro.telemetry.openmetrics import (
    sanitize_label_name,
    sanitize_metric_name,
)
from tests.support.telemetry import OpenMetricsParseError, parse_openmetrics


def populated_registry() -> MetricsRegistry:
    metrics = MetricsRegistry()
    metrics.counter("dispatches_total", worker=3).inc(12)
    metrics.counter("dispatches_total", worker=4).inc(1)
    metrics.counter("wire_bytes_total").inc(1024)
    metrics.gauge("fleet_sampled_fraction").set(0.25)
    metrics.gauge("cohort_members", ratio=0.3, cluster="A").set(128)
    hist = metrics.histogram("round_time_s", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.7, 5.0):
        hist.observe(value)
    return metrics


def test_roundtrip_through_parser():
    metrics = populated_registry()
    families = parse_openmetrics(render_openmetrics(metrics))

    assert families["dispatches"].type == "counter"
    assert families["dispatches"].sample_value(
        "dispatches_total", worker="3") == 12
    assert families["wire_bytes"].sample_value("wire_bytes_total") == 1024

    assert families["fleet_sampled_fraction"].type == "gauge"
    assert families["fleet_sampled_fraction"].sample_value(
        "fleet_sampled_fraction") == 0.25
    assert families["cohort_members"].sample_value(
        "cohort_members", ratio="0.3", cluster="A") == 128

    hist = families["round_time_s"]
    assert hist.type == "histogram"
    assert hist.sample_value("round_time_s_bucket", le="0.1") == 1
    assert hist.sample_value("round_time_s_bucket", le="1") == 3
    assert hist.sample_value("round_time_s_bucket", le="+Inf") == 4
    assert hist.sample_value("round_time_s_count") == 4
    assert hist.sample_value("round_time_s_sum") == pytest.approx(6.25)


def test_counter_family_strips_total_suffix():
    text = render_openmetrics(populated_registry())
    assert "# TYPE dispatches counter" in text
    assert "# TYPE dispatches_total" not in text
    assert 'dispatches_total{worker="3"} 12' in text


def test_registry_export_matches_render(tmp_path):
    metrics = populated_registry()
    assert metrics.to_openmetrics() == render_openmetrics(metrics)
    out = tmp_path / "metrics.om"
    metrics.export_openmetrics(out)
    assert out.read_text() == render_openmetrics(metrics)
    assert out.read_text().endswith("# EOF\n")


def test_unset_gauges_are_skipped():
    metrics = MetricsRegistry()
    metrics.gauge("never_set")
    metrics.counter("something_total").inc()
    families = parse_openmetrics(render_openmetrics(metrics))
    assert "never_set" not in families


def test_label_values_escape_and_unescape():
    metrics = MetricsRegistry()
    nasty = 'a"b\\c\nd'
    metrics.counter("events_total", kind=nasty).inc(2)
    families = parse_openmetrics(render_openmetrics(metrics))
    assert families["events"].sample_value("events_total", kind=nasty) == 2


def test_name_sanitisation():
    assert sanitize_metric_name("round.time-s") == "round_time_s"
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_label_name("plan-sig") == "plan_sig"
    metrics = MetricsRegistry()
    metrics.counter("bad.name_total", **{"le-gal": "x"}).inc()
    families = parse_openmetrics(render_openmetrics(metrics))
    assert families["bad_name"].sample_value("bad_name_total", le_gal="x") == 1


def test_special_float_values_roundtrip():
    metrics = MetricsRegistry()
    metrics.gauge("inf_gauge").set(math.inf)
    families = parse_openmetrics(render_openmetrics(metrics))
    assert families["inf_gauge"].sample_value("inf_gauge") == math.inf


def test_parser_rejects_untyped_samples():
    with pytest.raises(OpenMetricsParseError, match="precedes its TYPE"):
        parse_openmetrics("orphan_total 1\n# EOF\n")


def test_parser_rejects_missing_eof():
    with pytest.raises(OpenMetricsParseError, match="EOF"):
        parse_openmetrics("# TYPE x counter\nx_total 1\n")


def test_parser_rejects_noncumulative_buckets():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="+Inf"} 3\n'
        "h_sum 1\nh_count 3\n# EOF\n"
    )
    with pytest.raises(OpenMetricsParseError, match="not cumulative"):
        parse_openmetrics(text)


def test_parser_rejects_missing_inf_bucket():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 2\n'
        "h_sum 1\nh_count 2\n# EOF\n"
    )
    with pytest.raises(OpenMetricsParseError, match=r"\+Inf"):
        parse_openmetrics(text)


def test_disabled_registry_renders_empty_exposition():
    text = render_openmetrics(MetricsRegistry(enabled=False))
    assert parse_openmetrics(text) == {}
    assert text == "# EOF\n"
