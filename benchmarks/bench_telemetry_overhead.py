"""Telemetry overhead on the fleet-scale cohort round.

Runs the committed fleet workload (:mod:`repro.experiments.fleet`)
twice on the same seeded task -- once with telemetry fully disabled
(``DISABLED_TELEMETRY``, the default) and once with the span tracer
writing JSONL and the metrics registry live -- and reports the
wall-time overhead the instrumentation adds.  The observability
acceptance bar is < 5% on a 100k-worker cohort-sampled round::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

The cohort path keeps trace volume at O(cohorts), not O(members), so
the overhead must stay flat as the fleet grows.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro.experiments.fleet import make_fleet, make_task, measure
from repro.telemetry import (
    JsonlSink,
    MetricsRegistry,
    Telemetry,
    Tracer,
)


def run_pair(fleet: int, rounds: int, trace_dir: Path) -> dict:
    task = make_task()
    devices = make_fleet(fleet)
    # warm-up: first run pays numpy/import one-offs for both arms
    measure(task, devices, 1)

    disabled = measure(task, devices, rounds)

    trace_path = trace_dir / f"fleet_{fleet}.jsonl"
    telemetry = Telemetry(tracer=Tracer(JsonlSink(trace_path)),
                          metrics=MetricsRegistry())
    enabled = measure(task, devices, rounds, telemetry=telemetry)
    telemetry.close()

    overhead = (enabled["wall_s_total"] / disabled["wall_s_total"]) - 1.0
    return {
        "fleet": fleet,
        "rounds": rounds,
        "disabled_wall_s": disabled["wall_s_total"],
        "enabled_wall_s": enabled["wall_s_total"],
        "overhead_pct": round(overhead * 100.0, 2),
        "trace_bytes": trace_path.stat().st_size,
        "trace_records": sum(1 for _ in trace_path.open()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--budget-pct", type=float, default=5.0,
                        help="fail (exit 1) above this overhead")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        result = run_pair(args.fleet, args.rounds, Path(tmp))
    result["benchmark"] = "telemetry_overhead"
    result["budget_pct"] = args.budget_pct

    text = json.dumps(result, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    print(text)
    if result["overhead_pct"] > args.budget_pct:
        print(f"FAIL: {result['overhead_pct']}% overhead exceeds the "
              f"{args.budget_pct}% budget")
        return 1
    print(f"ok: {result['overhead_pct']}% overhead within the "
          f"{args.budget_pct}% budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
