#!/usr/bin/env python3
"""The FedMP round-pipeline benchmark (see perf/README.md).

Two modes, one file:

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload, in this process.  ``--trace 0`` is a timed
    run and reports the end-to-end metrics; ``--trace 1`` runs a short
    bare pass, the same pass again under the span recorder, and the
    probe pass, and reports the per-layer metrics.  The last line of
    standard output is one JSON object with the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics``.

``python3 perf/run.py --seed N --out REPORT.json``
    The whole benchmark: every workload, three timed runs plus one
    traced run each (one of each with ``--quick``), every run its own
    subprocess.  Prints every metric by name with its unit, checks
    outputs, writes the report ``perf/compare.py`` reads, and exits
    non-zero on a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import env  # noqa: E402

if __name__ == "__main__":
    # before NumPy: the BLAS pins below are read when it loads, and
    # every pool child forked or spawned later inherits them
    env.bootstrap()

from harness import catalog, stats  # noqa: E402

#: hard timeout of one worker run, under the contract's 180 s cap
WORKER_TIMEOUT_S = 150.0
#: timed runs per workload in the whole benchmark
REPEATS = 3
#: set-up rehearsals may use this share of ``--seconds``
SETUP_BUDGET_SHARE = 0.15
#: timed-run metrics that are simulated, not timed: every repeat
#: reads the same to the last digit
EXACT_METRICS = ("final_eval_loss", "sim_time_to_target_s")


def _work_dir(workload: str) -> Path:
    return env.WORK_DIR / f"{workload}-{os.getpid()}"


def timed_metrics(result) -> dict:
    """The end-to-end metrics of one timed pass (``failed_ops_share``
    is derived later, from attempted / failed; ``wire_bytes_per_param``
    is counted in the traced pass)."""
    walls = result.timed_walls
    values = {
        "setup_s": (stats.summarise(result.setup_samples)["median"]
                    if result.setup_samples else None),
        "run_wall_s": result.run_wall_s,
        "rounds_per_s": len(walls) / sum(walls) if walls else None,
        "peak_rss_mb": result.peak_rss_mb,
        "final_eval_loss": result.final_eval_loss,
        "sim_time_to_target_s": result.sim_time_to_target_s,
    }
    units = catalog.end_to_end_by_name()
    return {
        name: {"value": value, "unit": units[name].unit}
        for name, value in values.items()
    }


def run_worker(args) -> int:
    from harness import layers, probes
    from harness.runner import run_pass
    from harness.workloads import get_workload

    workload = get_workload(args.workload, quick=args.quick)
    detail = {}  # what the whole-benchmark mode reads back
    # one pass with --trace 0, two with --trace 1: the run as a whole
    # stays inside WORKER_TIMEOUT_S.  The quality thresholds belong to
    # the full-length timed run; the short passes only have to finish.
    common = dict(work_dir=_work_dir(workload.name),
                  timeout_s=WORKER_TIMEOUT_S / (1 + args.trace),
                  check_quality=args.trace == 0 and not args.quick)

    if args.trace == 0:
        rounds = (workload.sizes.quick if args.quick
                  else workload.timed_rounds(args.seconds))
        result = run_pass(
            workload, args.seed, rounds, traced=False,
            setup_budget_s=SETUP_BUDGET_SHARE * args.seconds, **common)
        metrics = timed_metrics(result)
        passes = [result]
        detail.update({
            "timed_rounds": rounds,
            "setup_samples": result.setup_samples,
            "timed_walls": result.timed_walls,
        })
    else:
        rounds = (workload.sizes.quick if args.quick
                  else workload.sizes.traced)
        bare = run_pass(workload, args.seed, rounds, traced=False, **common)
        traced = run_pass(workload, args.seed, rounds, traced=True, **common)
        passes = [bare, traced]
        if args.trace_out:
            traced.recorder.write_jsonl(Path(args.trace_out))
        values = {}
        if bare.timed_walls and traced.timed_walls:
            values.update(layers.in_run_metrics(traced, bare))
            gaps = layers.self_sum_gaps(traced)
            traced.checks["self_times_sum_to_round_wall"] = not gaps
        # tracing must be inert and the run deterministic: the traced
        # pass retraces the bare pass bit for bit
        traced.checks["traced_equals_bare"] = (
            traced.digest == bare.digest and bool(traced.digest))
        traced.checks["wrappers_restored"] = traced.recorder.wrapped == 0
        probe_readings = probes.run_probes(quick=args.quick)
        values.update(
            {name: value for name, (value, _) in probe_readings.items()})
        units = catalog.per_layer_units()
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items() if name in values
        }
        # an exact count; null where no frame crossed a pipe or socket
        moved_bytes = traced.counter("wire_bytes_total")
        detail.update({
            catalog.WIRE_BYTES_PER_PARAM: (
                moved_bytes / traced.params_moved
                if moved_bytes and traced.params_moved else None),
            "traced_rounds": rounds,
            "probe_calls": {name: calls for name, (_, calls)
                            in probe_readings.items()},
        })

    # what BENCHMARK.json promises the driver for this --trace value
    promised = ([metric.name for metric in catalog.DRIVER_END_TO_END]
                if args.trace == 0 else list(catalog.per_layer_units()))
    missing = [
        name for name in promised
        if metrics.get(name, {}).get("value") is None
    ]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not missing
    detail.update({
        "digest": passes[-1].digest,
        "checks": {
            ("traced." if p.traced else "") + name: ok
            for p in passes for name, ok in p.checks.items()
        },
        "errors": [p.error for p in passes if p.error],
        "missing_metrics": missing,
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "correct": correct,
    })
    if args.detail_out:
        Path(args.detail_out).write_text(json.dumps(detail))

    for name, reading in metrics.items():
        print(f"{name:<58} {reading['value']!r:>24} {reading['unit']}")
    if detail.get(catalog.WIRE_BYTES_PER_PARAM) is not None:
        print(f"{catalog.WIRE_BYTES_PER_PARAM:<58} "
              f"{detail[catalog.WIRE_BYTES_PER_PARAM]!r:>24} bytes")
    print(f"{catalog.FAILED_OPS_SHARE:<58} {failed / attempted!r:>24} ratio")
    for name, ok in detail["checks"].items():
        print(f"check {name:<52} {'ok' if ok else 'FAILED'}")
    for error in detail["errors"]:
        print(f"error: {error}")
    for p in passes:
        if p.traceback:
            print(p.traceback, file=sys.stderr)
    # a metric that could not be measured is left out, never printed
    # as a made-up number; ``correct`` is already false in that case
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: metrics[name] for name in promised
                    if name not in missing},
    }))
    return 0


# ----------------------------------------------------------------------
# the whole benchmark
# ----------------------------------------------------------------------
def _spawn_worker(workload: str, seed: int, seconds: int, trace: int,
                  quick: bool) -> dict:
    """One worker run in its own process (own RSS, own allocator)."""
    env.WORK_DIR.mkdir(exist_ok=True)
    detail_path = env.WORK_DIR / f"detail-{workload}-{trace}-{os.getpid()}"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail-out", str(detail_path),
    ]
    if quick:
        command.append("--quick")
    # its own process group, so a hung run dies with all its children
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        process.wait(timeout=WORKER_TIMEOUT_S + 25.0)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    try:
        detail = json.loads(detail_path.read_text())
    except (OSError, ValueError):
        detail = None
    finally:
        detail_path.unlink(missing_ok=True)
    if detail is None or process.returncode != 0:
        return {"correct": False, "metrics": {}, "checks": {},
                "errors": [f"worker exited {process.returncode} without "
                           f"a result"],
                "attempted": 1, "failed": 1, "digest": []}
    return detail


def _workload_report(workload, args) -> dict:
    timed = [
        _spawn_worker(workload.name, args.seed, args.seconds, 0, args.quick)
        for _ in range(1 if args.quick else REPEATS)
    ]
    traced = _spawn_worker(workload.name, args.seed, args.seconds, 1,
                           args.quick)

    attempted = sum(run["attempted"] for run in timed)
    failed = sum(run["failed"] for run in timed)
    end_to_end = {}
    for metric in catalog.END_TO_END:
        values = [
            run["metrics"][metric.name]["value"] for run in timed
            if run["metrics"].get(metric.name, {}).get("value") is not None
        ]
        if metric.name == catalog.FAILED_OPS_SHARE:
            values = [failed / attempted]
        elif (metric.name == catalog.WIRE_BYTES_PER_PARAM
              and traced.get(catalog.WIRE_BYTES_PER_PARAM) is not None):
            values = [traced[catalog.WIRE_BYTES_PER_PARAM]]
        if values:
            end_to_end[metric.name] = dict(
                stats.summarise(values), unit=metric.unit)

    checks = {}
    for index, run in enumerate(timed):
        for name, ok in run["checks"].items():
            checks[f"timed[{index}].{name}"] = ok
    checks.update(traced["checks"])
    digests = [run["digest"] for run in timed]
    checks["timed_runs_identical"] = all(
        digest == digests[0] for digest in digests)
    checks["exact_metrics_identical"] = all(
        end_to_end[name]["min"] == end_to_end[name]["max"]
        for name in EXACT_METRICS if name in end_to_end)
    # tracing is inert and the run deterministic: the short traced pass
    # retraces the opening rounds of the timed pass bit for bit
    prefix = traced["digest"]
    checks["traced_is_prefix_of_timed"] = bool(prefix) and all(
        digest[:len(prefix)] == prefix for digest in digests)

    per_layer = dict(traced["metrics"])
    walls_ms = [
        wall * 1e3 for run in timed for wall in run.get("timed_walls", [])
    ]
    # a percentile needs 10 samples beyond it in a single run's rounds
    per_run = len(walls_ms) // max(1, len(timed))
    if (stats.highest_supported_percentile(per_run) or 0.0) >= 90.0:
        per_layer[catalog.ROUND_WALL_P90] = {
            "value": stats.percentile(walls_ms, 90.0), "unit": "ms",
            "samples": len(walls_ms),
        }
    return {
        "why": workload.why,
        "timed_rounds": timed[0].get("timed_rounds"),
        "traced_rounds": traced.get("traced_rounds"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "probe_calls": traced.get("probe_calls", {}),
        "attempted": attempted + traced["attempted"],
        "failed": failed + traced["failed"],
        "checks": checks,
        "errors": [e for run in timed + [traced] for e in run["errors"]],
    }


def _print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['timed_rounds']} timed rounds, "
              f"{entry['traced_rounds']} traced ==")
        for metric, summary in entry["end_to_end"].items():
            print(f"  {metric:<24} median {summary['median']!r:>22} "
                  f"{summary['unit']:<6} min {summary['min']:.6g} "
                  f"max {summary['max']:.6g} n={summary['n']}")
        for metric, reading in entry["per_layer"].items():
            note = ""
            if "samples" in reading:
                note = f" ({reading['samples']} samples)"
            elif metric in entry["probe_calls"]:
                note = f" ({entry['probe_calls'][metric]} calls)"
            print(f"  {metric:<56} {reading['value']:>16.6g} "
                  f"{reading['unit']}{note}")
        bad = [check for check, ok in entry["checks"].items() if not ok]
        print(f"  checks: {len(entry['checks']) - len(bad)} ok, "
              f"{len(bad)} failed {bad if bad else ''}")
        for error in entry["errors"]:
            print(f"  error: {error}")


def run_all(args) -> int:
    from harness.workloads import WORKLOADS

    report = {
        "schema": 1,
        "fingerprint": env.fingerprint(args.seed),
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "workloads": {
            workload.name: _workload_report(workload, args)
            for workload in WORKLOADS
        },
    }
    _print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    ok = all(
        entry["failed"] == 0 and all(entry["checks"].values())
        for entry in report["workloads"].values()
    )
    print(f"\n{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in "
                        "this process (else: the whole benchmark)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int, default=catalog.RUN_SECONDS,
                        help="sizes the timed runs (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: minimal rounds, 10k fleet, "
                        "no quality thresholds")
    parser.add_argument("--trace-out", help="write the traced pass's "
                        "spans as JSONL (with --workload --trace 1)")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--out", help="write the full report here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_worker(args)
    return run_all(args)


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # on every path out: nothing this run started outlives it
        env.stop_children()
    sys.exit(status)
