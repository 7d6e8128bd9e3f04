"""The closed list of metric names, with units, directions and bounds.

``BENCHMARK.json`` at the repository root repeats the end-to-end and
per-layer tables below; ``perf/tests/test_manifest.py`` keeps the two in
step.  Later issues refer to these names verbatim.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: what one run of the driver's command measures for, in seconds
RUN_SECONDS = 20


class EndToEnd(NamedTuple):
    """perf/README.md defines each metric."""

    name: str
    unit: str
    better: str   # "lower" | "higher"
    #: share of the parent's median it may worsen by, **same seed on
    #: both sides** -- the bound ``compare.py`` applies
    bound: float
    #: the bound in ``BENCHMARK.json``, where the ten runs behind a
    #: median each use another seed; ``None``: not listed there
    driver_bound: Optional[float]
    #: an absolute change this small is never a regression
    slack: float = 0.0


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.15, 0.25, slack=0.10),
    EndToEnd("run_wall_s", "s", "lower", 0.10, 0.25),
    EndToEnd("rounds_per_s", "1/s", "higher", 0.10, 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, 0.20),
    # counted in the traced pass; null where no frame crosses a wire
    EndToEnd("wire_bytes_per_param", "bytes", "lower", 0.005, None),
    EndToEnd("final_eval_loss", "loss", "lower", 0.01, None),
    # cnn_sync_serial only, null elsewhere
    EndToEnd("sim_time_to_target_s", "sim_s", "lower", 0.05, None),
    # reaches the driver through its own attempted / failed keys
    EndToEnd("failed_ops_share", "ratio", "lower", 0.0, None),
)

FAILED_OPS_SHARE = "failed_ops_share"
WIRE_BYTES_PER_PARAM = "wire_bytes_per_param"


class PerLayer(NamedTuple):
    """perf/README.md says which end-to-end metric each of these
    should move, and on which workload."""

    name: str
    unit: str
    better: str


_IN_RUN: Tuple[PerLayer, ...] = (
    PerLayer("data.build_s", "s", "lower"),
    PerLayer("simulation.devices_s", "s", "lower"),
    PerLayer("fl.engine.init_s", "s", "lower"),
    PerLayer("fl.engine.membership_s", "s", "lower"),
    PerLayer("fl.engine.dispatch_s", "s", "lower"),
    PerLayer("fl.engine.train_prep_s", "s", "lower"),
    PerLayer("bandit.decide_s", "s", "lower"),
    PerLayer("bandit.observe_s", "s", "lower"),
    PerLayer("bandit.decisions", "count", "lower"),
    PerLayer("pruning.plan_s", "s", "lower"),
    PerLayer("pruning.extract_s", "s", "lower"),
    PerLayer("pruning.plans", "count", "lower"),
    PerLayer("pruning.extracts", "count", "lower"),
    PerLayer("pruning.cache_hit_share", "ratio", "higher"),
    PerLayer("runtime.executor.run_s", "s", "lower"),
    PerLayer("runtime.executor.members", "count", "lower"),
    PerLayer("runtime.executor.cohort_share", "ratio", "higher"),
    PerLayer("runtime.executor.wire_bytes.dispatch", "bytes", "lower"),
    PerLayer("runtime.executor.wire_bytes.template", "bytes", "lower"),
    PerLayer("runtime.executor.wire_bytes.contribution", "bytes", "lower"),
    PerLayer("runtime.executor.retries", "count", "lower"),
    PerLayer("runtime.executor.stragglers", "count", "lower"),
    PerLayer("runtime.executor.template_evictions", "count", "lower"),
    PerLayer("serve.lost", "count", "lower"),
    PerLayer("serve.reconnects", "count", "lower"),
    PerLayer("serve.registrations", "count", "lower"),
    PerLayer("fl.aggregation.aggregate_s", "s", "lower"),
    PerLayer("fl.aggregation.contributions", "count", "lower"),
    PerLayer("fl.tasks.evaluate_s", "s", "lower"),
    PerLayer("fl.tasks.evals", "count", "lower"),
    PerLayer("fl.checkpoint.save_s", "s", "lower"),
    PerLayer("fl.checkpoint.saves", "count", "lower"),
    PerLayer("fl.checkpoint.bytes", "bytes", "lower"),
    PerLayer("fl.schedulers.self_s", "s", "lower"),
    PerLayer("fl.schedulers.round_wall_ms_p50", "ms", "lower"),
    PerLayer("telemetry.trace_overhead_pct", "%", "lower"),
)

_PROBES: Tuple[PerLayer, ...] = (
    PerLayer("nn.im2col_ms", "ms", "lower"),
    PerLayer("nn.col2im_ms", "ms", "lower"),
    PerLayer("nn.conv2d_fwd_ms", "ms", "lower"),
    PerLayer("nn.conv2d_bwd_ms", "ms", "lower"),
    PerLayer("nn.conv2d_gflops", "GFLOP/s", "higher"),
    PerLayer("nn.linear_fwd_bwd_ms", "ms", "lower"),
    PerLayer("nn.maxpool_fwd_bwd_ms", "ms", "lower"),
    PerLayer("nn.lstm_fwd_bwd_ms", "ms", "lower"),
    PerLayer("nn.train_step_ms.cnn", "ms", "lower"),
    PerLayer("nn.train_step_ms.lstm", "ms", "lower"),
    PerLayer("nn.train_step_ms.resnet50", "ms", "lower"),
    PerLayer("nn.batched.train_cohort_ms", "ms", "lower"),
    PerLayer("pruning.plan_ms.cnn", "ms", "lower"),
    PerLayer("pruning.plan_ms.resnet50", "ms", "lower"),
    PerLayer("pruning.plan_ms.lstm", "ms", "lower"),
    PerLayer("pruning.extract_ms.cnn", "ms", "lower"),
    PerLayer("pruning.extract_ms.resnet50", "ms", "lower"),
    PerLayer("pruning.extract_ms.lstm", "ms", "lower"),
    PerLayer("pruning.scatter_add_ms.cnn", "ms", "lower"),
    PerLayer("runtime.codec.encode_dispatch_ms", "ms", "lower"),
    PerLayer("runtime.codec.decode_dispatch_ms", "ms", "lower"),
    PerLayer("runtime.codec.encode_contribution_ms.exact", "ms", "lower"),
    PerLayer("runtime.codec.encode_contribution_ms.sparse_quantized", "ms",
             "lower"),
    PerLayer("runtime.codec.decode_contribution_ms.exact", "ms", "lower"),
    PerLayer("runtime.codec.decode_contribution_ms.sparse_quantized", "ms",
             "lower"),
    PerLayer("runtime.codec.bytes_per_param.exact", "bytes", "lower"),
    PerLayer("runtime.codec.bytes_per_param.sparse_quantized", "bytes",
             "lower"),
    PerLayer("fl.aggregation.aggregate_ms.r2sp", "ms", "lower"),
    PerLayer("fl.aggregation.aggregate_ms.bsp", "ms", "lower"),
    PerLayer("fl.tasks.evaluate_ms.cnn", "ms", "lower"),
    PerLayer("fl.tasks.evaluate_ms.lstm", "ms", "lower"),
    PerLayer("bandit.play_us", "us", "lower"),
    PerLayer("bandit.regions", "count", "lower"),
    PerLayer("fl.checkpoint.encode_ms", "ms", "lower"),
    PerLayer("fl.checkpoint.decode_ms", "ms", "lower"),
)

PER_LAYER: Tuple[PerLayer, ...] = _IN_RUN + _PROBES

#: the end-to-end metrics ``BENCHMARK.json`` can list: defined on every
#: workload, never 0, and steady across seeds (see "What the driver
#: gates" in perf/README.md)
DRIVER_END_TO_END: Tuple[EndToEnd, ...] = tuple(
    metric for metric in END_TO_END if metric.driver_bound is not None
)

#: reported from the timed passes only, where a workload has at least
#: 100 timed rounds (10 samples beyond the 90th percentile)
ROUND_WALL_P90 = "fl.schedulers.round_wall_ms_p90"


def end_to_end_by_name() -> Dict[str, EndToEnd]:
    return {metric.name: metric for metric in END_TO_END}


def per_layer_units() -> Dict[str, str]:
    return {metric.name: metric.unit for metric in PER_LAYER}


def manifest(workloads: List[Tuple[str, str]]) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document for ``(name, why)`` workloads."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in workloads
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.driver_bound}
            for m in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
