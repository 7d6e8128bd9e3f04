"""Metrics registry: counters, gauges and fixed-bucket histograms.

Instruments are keyed by name plus a label set (worker id, layer,
strategy, ...), mirroring the Prometheus data model at the scale of one
in-process experiment:

- :class:`Counter` -- monotonically increasing totals (parameters
  moved, dispatches issued);
- :class:`Gauge` -- last-written values (a worker's current pruning
  ratio);
- :class:`Histogram` -- fixed-bucket distributions with approximate
  p50/p95/p99 summaries (round times, training losses).

A registry constructed with ``enabled=False`` hands out shared no-op
instruments, so instrumented code pays one dictionary-free call per
observation when metrics are off.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text
from repro.telemetry.spans import to_jsonable

#: default bucket upper bounds, sized for host seconds (sub-ms .. minutes)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def format_instrument(name: str, labels: Dict[str, Any]) -> str:
    """Human-readable ``name{k=v,...}`` identifier for reports."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items(),
                                                   key=lambda kv: kv[0]))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are ascending upper bounds; one implicit overflow
    bucket catches everything above the last bound.  Percentiles are
    estimated by linear interpolation inside the winning bucket (the
    overflow bucket reports the observed maximum), which is exact
    enough for the p50/p95/p99 round-time summaries the benchmarks
    report -- but only while few observations overflow, so any
    percentile that lands in the overflow bucket is clipped to the
    max.  :attr:`overflow_count` is therefore reported
    explicitly: a non-zero overflow share means the bucket layout
    needs widening (see ``MetricsRegistry(bucket_overrides=...)``).
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(self, name: str, labels: Dict[str, Any],
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def percentile(self, p: float) -> Optional[float]:
        """Approximate p-th percentile (``None`` with no observations)."""
        if self.count == 0:
            return None
        rank = (p / 100.0) * self.count
        cumulative = 0.0
        lower = self.min
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            if bucket_count:
                upper = min(bound, self.max)
                low_edge = max(lower, self.min)
                if cumulative + bucket_count >= rank:
                    fraction = (rank - cumulative) / bucket_count
                    return low_edge + fraction * max(0.0, upper - low_edge)
                cumulative += bucket_count
            lower = bound
        return self.max

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    @property
    def overflow_count(self) -> int:
        """Observations above the last configured bucket bound.

        These land in the implicit overflow bucket, where percentile
        interpolation degrades to the observed max -- a non-zero count
        is the signal that the bucket layout clips the tail and should
        be widened per-histogram via ``bucket_overrides``.
        """
        return self.bucket_counts[-1]

    def summary(self) -> Dict[str, Optional[float]]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": None, "min": None,
                    "max": None, "p50": None, "p95": None, "p99": None,
                    "overflow": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "overflow": self.overflow_count,
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Get-or-create registry of instruments keyed by name + labels.

    ``bucket_overrides`` maps a histogram *name* to the bucket bounds
    every histogram of that name should use when its call site does not
    pass explicit ``buckets`` -- the way to widen e.g. ``round_time_s``
    for fleet-scale runs without touching the instrumented code.  An
    explicit ``buckets=`` argument at the call site still wins.
    """

    def __init__(self, enabled: bool = True,
                 bucket_overrides: Optional[
                     Dict[str, Sequence[float]]] = None) -> None:
        self.enabled = enabled
        self.bucket_overrides: Dict[str, Tuple[float, ...]] = {
            name: tuple(float(b) for b in bounds)
            for name, bounds in (bucket_overrides or {}).items()
        }
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_COUNTER
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, labels)
        return counter

    def gauge(self, name: str, **labels: Any):
        if not self.enabled:
            return _NULL_GAUGE
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, labels)
        return gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: Any):
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            if buckets is None:
                buckets = self.bucket_overrides.get(name,
                                                    DEFAULT_TIME_BUCKETS)
            histogram = self._histograms[key] = Histogram(
                name, labels, buckets,
            )
        return histogram

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    @property
    def counters(self) -> List[Counter]:
        return list(self._counters.values())

    @property
    def gauges(self) -> List[Gauge]:
        return list(self._gauges.values())

    @property
    def histograms(self) -> List[Histogram]:
        return list(self._histograms.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump of every instrument."""
        return to_jsonable({
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for c in self._counters.values()
            ],
            "gauges": [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for g in self._gauges.values()
            ],
            "histograms": [
                {"name": h.name, "labels": h.labels,
                 "buckets": list(h.bounds),
                 "bucket_counts": list(h.bucket_counts),
                 "summary": h.summary()}
                for h in self._histograms.values()
            ],
        })

    def save(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_dict` as an indented JSON file (atomically)."""
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    def to_openmetrics(self) -> str:
        """Render every instrument in the OpenMetrics text format.

        The output is Prometheus-scrapable (counters gain the
        ``_total`` sample suffix, histograms expand to cumulative
        ``_bucket{le=...}`` series plus ``_sum``/``_count``) and ends
        with the ``# EOF`` terminator.  See
        :mod:`repro.telemetry.openmetrics` for the grammar.
        """
        from repro.telemetry.openmetrics import render_openmetrics

        return render_openmetrics(self)

    def export_openmetrics(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_openmetrics` to a text file (atomically)."""
        atomic_write_text(path, self.to_openmetrics())
