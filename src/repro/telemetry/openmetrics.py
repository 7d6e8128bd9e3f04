"""OpenMetrics / Prometheus text-format rendering.

:func:`render_openmetrics` turns a
:class:`~repro.telemetry.metrics.MetricsRegistry` into the OpenMetrics
text exposition format -- the lingua franca every Prometheus-compatible
scraper understands::

    # TYPE dispatches counter
    dispatches_total{worker="3"} 12
    # TYPE round_time_s histogram
    round_time_s_bucket{le="0.5"} 0
    round_time_s_bucket{le="+Inf"} 6
    round_time_s_sum 41.2
    round_time_s_count 6
    # EOF

Rendering rules follow the spec where it bites:

- metric and label *names* are sanitised to ``[a-zA-Z_:][a-zA-Z0-9_:]*``
  (offending characters collapse to ``_``);
- counter families are exposed without the ``_total`` suffix in their
  ``# TYPE`` line while their samples carry it (the registry's counters
  are already named ``*_total`` by convention, so the family name is
  the name minus that suffix);
- label *values* escape ``\\``, ``"`` and newlines;
- histogram buckets are cumulative and always end with ``le="+Inf"``;
- the exposition ends with ``# EOF``.

The test suite validates the exporter by an actual round-trip through
a deliberately strict reader of the same grammar
(``tests/support/telemetry.py``'s ``parse_openmetrics``).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List

__all__ = ["render_openmetrics"]

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_FIX = re.compile(r"[^a-zA-Z0-9_]")

def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a legal metric name."""
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not re.match(r"[a-zA-Z_:]", fixed[0]):
        fixed = "_" + fixed
    return fixed


def sanitize_label_name(name: str) -> str:
    """Coerce ``name`` into a legal label name."""
    fixed = _LABEL_FIX.sub("_", name)
    if not fixed or not re.match(r"[a-zA-Z_]", fixed[0]):
        fixed = "_" + fixed
    return fixed


def escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_label_name(str(key))}='
        f'"{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return "{" + inner + "}"


def render_openmetrics(registry) -> str:
    """Render a :class:`MetricsRegistry` as OpenMetrics text."""
    lines: List[str] = []

    # families group instruments sharing a name; emit one TYPE line per
    # family followed by every labelled sample, in first-seen order
    counter_families: Dict[str, List] = {}
    for counter in registry.counters:
        counter_families.setdefault(counter.name, []).append(counter)
    for name, counters in counter_families.items():
        metric = sanitize_metric_name(name)
        family = metric[:-len("_total")] if metric.endswith("_total") \
            else metric
        lines.append(f"# TYPE {family} counter")
        for counter in counters:
            lines.append(
                f"{family}_total{_render_labels(counter.labels)} "
                f"{_format_value(counter.value)}"
            )

    gauge_families: Dict[str, List] = {}
    for gauge in registry.gauges:
        if gauge.value is None:
            continue
        gauge_families.setdefault(gauge.name, []).append(gauge)
    for name, gauges in gauge_families.items():
        family = sanitize_metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        for gauge in gauges:
            lines.append(
                f"{family}{_render_labels(gauge.labels)} "
                f"{_format_value(gauge.value)}"
            )

    histogram_families: Dict[str, List] = {}
    for histogram in registry.histograms:
        histogram_families.setdefault(histogram.name, []).append(histogram)
    for name, histograms in histogram_families.items():
        family = sanitize_metric_name(name)
        lines.append(f"# TYPE {family} histogram")
        for histogram in histograms:
            cumulative = 0
            for bound, count in zip(histogram.bounds,
                                    histogram.bucket_counts):
                cumulative += count
                labels = dict(histogram.labels)
                labels["le"] = _format_value(bound)
                lines.append(
                    f"{family}_bucket{_render_labels(labels)} "
                    f"{cumulative}"
                )
            labels = dict(histogram.labels)
            labels["le"] = "+Inf"
            lines.append(
                f"{family}_bucket{_render_labels(labels)} "
                f"{histogram.count}"
            )
            base = _render_labels(histogram.labels)
            lines.append(f"{family}_sum{base} "
                         f"{_format_value(histogram.sum)}")
            lines.append(f"{family}_count{base} {histogram.count}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
