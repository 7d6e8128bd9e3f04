"""Per-layer metrics of a traced pass, from spans and public counters.

Times are summed over the whole traced pass (warm-up rounds and the
tail after the last round included), the same window the program's
counters cover, so a count and the time next to it describe the same
work.  Only ``fl.schedulers.round_wall_ms_p50`` and the tracing
overhead look at the timed rounds alone.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from harness.runner import PassResult
from harness.spans import ROUND_SPAN, Span, self_times
from harness.stats import percentile

EXECUTOR_SPANS = ("engine.executor.run", "engine.executor.run_cohort")
#: per-round self times must add up to the round wall this closely
SELF_SUM_TOLERANCE = 0.02


def in_run_metrics(traced: PassResult, bare: PassResult) -> Dict[str, float]:
    """Every in-run per-layer metric of one workload.

    ``bare`` is the same pass without wrappers; it supplies the round
    walls the tracing overhead is measured against.
    """
    spans = traced.recorder.spans
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(span.duration for span in named(name))

    def self_total(name: str) -> float:
        return sum(selfs[span.id] for span in named(name))

    def count(name: str) -> int:
        return sum(span.count for span in named(name))

    # an executor's run_cohort may fall back to its own run(): only the
    # outermost executor span of a call counts
    executor_calls = [
        span for span in spans
        if span.name in EXECUTOR_SPANS and (
            span.parent is None
            or by_id[span.parent].name not in EXECUTOR_SPANS)
    ]
    members = sum(span.count for span in executor_calls)
    cohort_members = sum(
        span.count for span in executor_calls
        if span.name == "engine.executor.run_cohort")
    dispatched = count("engine.dispatch_many")
    plans = len(named("engine.task.build_plan"))
    data_s, devices_s, init_s = traced.setup_parts
    service = traced.service_counters or {}
    rounds = [
        span for span in named(ROUND_SPAN)
        if span.round < traced.rounds_planned
    ]
    bare_p50 = percentile(bare.timed_walls, 50.0)
    traced_p50 = percentile(traced.timed_walls, 50.0)

    return {
        "data.build_s": data_s,
        "simulation.devices_s": devices_s,
        "fl.engine.init_s": init_s,
        "fl.engine.membership_s": (total("engine.present_workers")
                                   + total("engine.sample_clients")),
        "fl.engine.dispatch_s": self_total("engine.dispatch_many"),
        "fl.engine.train_prep_s": self_total("engine.train_all"),
        "bandit.decide_s": total("engine.strategy.select_ratios"),
        "bandit.observe_s": total("engine.strategy.observe_round"),
        "bandit.decisions": count("engine.strategy.select_ratios"),
        "pruning.plan_s": total("engine.task.build_plan"),
        "pruning.extract_s": total("engine.task.extract"),
        "pruning.plans": plans,
        "pruning.extracts": len(named("engine.task.extract")),
        "pruning.cache_hit_share": (
            1.0 - plans / dispatched if dispatched else 0.0),
        "runtime.executor.run_s": sum(
            span.duration for span in executor_calls),
        "runtime.executor.members": members,
        "runtime.executor.cohort_share": (
            cohort_members / members if members else 0.0),
        "runtime.executor.wire_bytes.dispatch": traced.counter(
            "wire_bytes_total", kind="dispatch"),
        "runtime.executor.wire_bytes.template": traced.counter(
            "wire_bytes_total", kind="template"),
        "runtime.executor.wire_bytes.contribution": traced.counter(
            "wire_bytes_total", kind="contribution"),
        "runtime.executor.retries": traced.counter("retries_total"),
        "runtime.executor.stragglers": traced.counter("stragglers_total"),
        "runtime.executor.template_evictions": traced.counter(
            "dispatch_cache_evictions_total"),
        "serve.lost": service.get("lost", 0),
        "serve.reconnects": service.get("reconnect", 0),
        "serve.registrations": service.get("register", 0),
        "fl.aggregation.aggregate_s": total("engine.aggregate"),
        "fl.aggregation.contributions": count("engine.aggregate"),
        "fl.tasks.evaluate_s": total("engine.evaluate"),
        "fl.tasks.evals": count("engine.evaluate"),
        "fl.checkpoint.save_s": total("engine.maybe_checkpoint"),
        "fl.checkpoint.saves": traced.counter("checkpoints_written_total"),
        "fl.checkpoint.bytes": traced.counter("checkpoint_bytes_total"),
        "fl.schedulers.self_s": sum(selfs[span.id] for span in rounds),
        "fl.schedulers.round_wall_ms_p50": bare_p50 * 1e3,
        "telemetry.trace_overhead_pct": (
            (traced_p50 - bare_p50) / bare_p50 * 100.0),
    }


def self_sum_gaps(traced: PassResult) -> List[Tuple[int, float]]:
    """Rounds whose spans' self times miss the round wall by more than
    :data:`SELF_SUM_TOLERANCE`, as ``(round, relative gap)``."""
    spans = traced.recorder.spans
    selfs = self_times(spans)
    sums: Dict[int, float] = {}
    for span in spans:
        sums[span.round] = sums.get(span.round, 0.0) + selfs[span.id]
    gaps = []
    for round_index, wall in enumerate(traced.round_walls):
        gap = abs(sums.get(round_index, 0.0) - wall) / wall
        if gap > SELF_SUM_TOLERANCE:
            gaps.append((round_index, gap))
    return gaps
