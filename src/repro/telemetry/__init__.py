"""Observability for the round engine: tracing, metrics, profiling.

The subsystem has four cooperating pieces, all cheap no-ops until a
sink or registry is attached:

- :mod:`repro.telemetry.spans` -- nested span tracer exported as
  JSONL (``round`` / ``decide`` / ``prune`` / ``dispatch`` /
  ``local_train`` / ``aggregate`` / ``eval``);
- :mod:`repro.telemetry.metrics` -- counters, gauges and fixed-bucket
  histograms keyed by name + labels, with p50/p95/p99 summaries;
- :mod:`repro.telemetry.profiler` -- per-layer forward/backward time
  and analytic FLOPs for one worker's local training;
- :mod:`repro.telemetry.hook` -- the :class:`TelemetryHook` round
  hook publishing engine activity (including FedMP's per-worker E-UCB
  snapshots) into the above.

:class:`~repro.telemetry.runtime.Telemetry` bundles the instruments;
pass it to :func:`repro.fl.runner.run_federated_training` (or use the
CLI flags ``--trace-out`` / ``--metrics-out`` / ``--profile-worker``).

On top of the core sit the observability exits and analytics:

- :mod:`repro.telemetry.openmetrics` -- Prometheus/OpenMetrics text
  rendering (``MetricsRegistry.to_openmetrics()``; the strict
  round-trip parser the tests check it with lives in
  ``tests/support/telemetry.py``, next to the in-memory ``ListSink``);
- :mod:`repro.telemetry.export` -- run-manifest JSON (trace + metrics
  + config + git SHA) and the opt-in ``/metrics`` HTTP scrape
  endpoint;
- :mod:`repro.telemetry.analysis` -- offline trace analytics behind
  ``repro trace`` (critical paths, phase breakdowns, trends, diffs,
  folded stacks).
"""

from repro.telemetry.analysis import (
    SpanNode,
    build_tree,
    critical_path,
    diff_traces,
    folded_stacks,
    load_trace,
    phase_breakdown,
    round_summaries,
    round_trends,
)
from repro.telemetry.export import (
    MetricsHTTPServer,
    git_revision,
    write_run_manifest,
)
from repro.telemetry.hook import TelemetryHook
from repro.telemetry.openmetrics import render_openmetrics
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_instrument,
)
from repro.telemetry.profiler import LayerProfiler, LayerRecord
from repro.telemetry.runtime import DISABLED_TELEMETRY, Telemetry
from repro.telemetry.spans import (
    RECORD_KINDS,
    SPAN_NAMES,
    ActiveSpan,
    JsonlSink,
    Tracer,
    to_jsonable,
)

__all__ = [
    "ActiveSpan",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "DISABLED_TELEMETRY",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LayerProfiler",
    "LayerRecord",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "RECORD_KINDS",
    "SPAN_NAMES",
    "SpanNode",
    "Telemetry",
    "TelemetryHook",
    "Tracer",
    "build_tree",
    "critical_path",
    "diff_traces",
    "folded_stacks",
    "format_instrument",
    "git_revision",
    "load_trace",
    "phase_breakdown",
    "render_openmetrics",
    "round_summaries",
    "round_trends",
    "to_jsonable",
    "write_run_manifest",
]
