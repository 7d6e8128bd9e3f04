"""Benchmark regression gating: compare runs against committed baselines.

The repo commits benchmark baselines (``BENCH_fleet.json``,
``BENCH_hotpath.json``) but, before this module, never looked at them
again -- a performance regression shipped silently.  (The process-pool
and service planes are measured by ``perf/``'s ``cnn_async_process``
and ``lstm_serve_sparse`` workloads, with repeats and spread.)
``repro bench check`` closes the loop:

- each baseline kind has an *extractor* that pulls the gateable
  metrics out of its report schema (fleet rounds/s, hot-path speedup)
  together with their direction;
- :func:`compare` normalises candidate-vs-baseline into a ratio where
  ``1.0`` means "as good as committed" and ``> 1`` means better,
  whatever the metric's direction, and applies a per-metric tolerance;
- :func:`run_fleet_smoke` produces a fresh candidate by re-running the
  committed fleet workload (shared via
  :mod:`repro.experiments.fleet`) in smoke mode.

Tolerances are deliberately generous by default (CI runners are noisy
and the smoke run uses a single round): the gate exists to catch the
order-of-magnitude regressions -- an accidentally de-cohorted fleet
path, a quadratic dispatch loop -- not 5% jitter.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple, Union

__all__ = [
    "MetricResult",
    "CheckReport",
    "extract_metrics",
    "compare",
    "run_fleet_smoke",
    "load_report",
    "write_report",
    "DEFAULT_TOLERANCE",
    "METRIC_TOLERANCES",
]

#: fallback fractional regression allowed before a metric fails
#: (0.6 = the candidate may be up to 60% below the committed number)
DEFAULT_TOLERANCE = 0.6

#: per-metric tolerance overrides, first prefix match wins; ratio-type
#: metrics (speedups) are far less noisy than absolute throughput, so
#: they get tighter gates
METRIC_TOLERANCES: Tuple[Tuple[str, float], ...] = (
    ("hotpath.speedup_wall", 0.3),
    ("hotpath.peak_alloc_ratio", 0.3),
)


@dataclass
class MetricResult:
    """Outcome of gating one metric."""

    metric: str
    baseline: float
    candidate: float
    #: normalised for direction: > 1 means the candidate beats the
    #: baseline, regardless of whether the raw metric is higher-better
    ratio: float
    tolerance: float
    ok: bool


@dataclass
class CheckReport:
    """Everything one ``repro bench check`` invocation decided."""

    baseline_path: str
    ok: bool
    results: List[MetricResult]
    #: baseline metrics the candidate did not measure (e.g. the slow
    #: per-member sweeps a smoke run skips) -- reported, never failed
    skipped: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "repro-bench-check",
            "baseline": self.baseline_path,
            "ok": self.ok,
            "results": [asdict(result) for result in self.results],
            "skipped": list(self.skipped),
        }


def _fleet_metrics(report: Dict[str, Any]) -> Iterator[Tuple[str, float]]:
    for entry in report.get("fleets", []):
        fleet = entry.get("fleet")
        for mode, stats in entry.items():
            if isinstance(stats, dict) and "rounds_per_s" in stats:
                yield (f"fleet[{fleet}].{mode}.rounds_per_s",
                       float(stats["rounds_per_s"]))


def _hotpath_metrics(report: Dict[str, Any]) -> Iterator[Tuple[str, float]]:
    for key in ("speedup_wall", "peak_alloc_ratio"):
        if key in report:
            yield f"hotpath.{key}", float(report[key])


#: benchmark kind -> metric extractor; every extracted metric is
#: higher-is-better (lower-better raw numbers are committed as ratios)
_EXTRACTORS = {
    "fleet_scale_rounds": _fleet_metrics,
    "dispatch_aggregate_hotpath": _hotpath_metrics,
}


def _kind_of(report: Dict[str, Any]) -> str:
    kind = report.get("benchmark")
    if kind in _EXTRACTORS:
        return kind
    raise ValueError(
        "unrecognised benchmark report: expected a 'benchmark' field of "
        f"{sorted(_EXTRACTORS)}"
    )


def extract_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Gateable metrics of a benchmark report, keyed by metric name."""
    return dict(_EXTRACTORS[_kind_of(report)](report))


def tolerance_for(metric: str,
                  default: float = DEFAULT_TOLERANCE) -> float:
    for prefix, tolerance in METRIC_TOLERANCES:
        if metric.startswith(prefix):
            return tolerance
    return default


def compare(baseline: Dict[str, Any], candidate: Dict[str, Any],
            baseline_path: str = "<baseline>",
            default_tolerance: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Gate ``candidate`` against ``baseline``; both are report dicts.

    A metric passes when ``candidate / baseline >= 1 - tolerance``.
    Metrics only the baseline measured are skipped (smoke candidates
    omit the slow sweeps); metrics only the candidate measured are
    ignored (a new benchmark mode cannot regress).
    """
    base_metrics = extract_metrics(baseline)
    cand_metrics = extract_metrics(candidate)
    results: List[MetricResult] = []
    skipped: List[str] = []
    for metric, base_value in sorted(base_metrics.items()):
        if metric not in cand_metrics:
            skipped.append(metric)
            continue
        cand_value = cand_metrics[metric]
        tolerance = tolerance_for(metric, default_tolerance)
        ratio = (cand_value / base_value) if base_value > 0 \
            else float("inf")
        results.append(MetricResult(
            metric=metric,
            baseline=base_value,
            candidate=cand_value,
            ratio=round(ratio, 4),
            tolerance=tolerance,
            ok=ratio >= 1.0 - tolerance,
        ))
    if not results:
        raise ValueError(
            f"no comparable metrics between {baseline_path} and the "
            f"candidate report"
        )
    return CheckReport(
        baseline_path=str(baseline_path),
        ok=all(result.ok for result in results),
        results=results,
        skipped=skipped,
    )


def run_fleet_smoke(fleet: int = 100_000,
                    progress=None) -> Dict[str, Any]:
    """Fresh fleet-benchmark candidate: one cohort-sampled smoke point.

    Imported lazily so ``repro bench check --candidate`` (pure
    file-vs-file mode) stays free of the engine import cost.
    """
    from repro.experiments.fleet import sweep

    return sweep((fleet,), smoke=True, progress=progress)


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_report(path: Union[str, Path], report: CheckReport) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
