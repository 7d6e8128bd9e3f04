"""Command-line interface.

Run a federated-training experiment end-to-end from the shell::

    python -m repro.cli run --task cnn --strategy fedmp --rounds 12 \
        --scenario medium --history out.json

    python -m repro.cli compare --task cnn --rounds 10 \
        --strategies synfl fedmp

    python -m repro.cli devices --scenario high

    python -m repro.cli verify --preset cnn --rounds 5

Run the parameter server as a long-lived service, with live workers
connecting over TCP (see DESIGN.md section 3.8)::

    python -m repro.cli serve --task cnn --rounds 5 --port 5641 \
        --min-workers 4
    python -m repro.cli client --connect 127.0.0.1:5641   # x4 terminals

Inspect a run afterwards::

    python -m repro.cli trace summary trace.jsonl
    python -m repro.cli trace diff before.jsonl after.jsonl
    python -m repro.cli trace folded trace.jsonl --out stacks.folded

``--task`` names a bench-scale workload from
:mod:`repro.experiments.setups` (cnn / alexnet / vgg19 / resnet50 /
lstm); every knob of :class:`repro.fl.FLConfig` that matters for quick
experiments is exposed as a flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments.reporting import (
    print_metrics_summary,
    print_profile_summary,
)
from repro.experiments.setups import (
    BENCH_TASKS,
    METHOD_LABELS,
    make_bench_task,
    make_devices,
)
from repro.fl.config import FLConfig
from repro.fl.hooks import CommVolumeHook, TimingHook
from repro.fl.runner import run_federated_training
from repro.fl.strategies import STRATEGIES
from repro.io import save_history
from repro.simulation.cluster import HETEROGENEITY_SCENARIOS, scenario_table
from repro.telemetry import (
    JsonlSink,
    LayerProfiler,
    MetricsRegistry,
    Telemetry,
    TelemetryHook,
    Tracer,
)


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of every run-like command (`run`, `compare`, `serve`):
    the workload and the :class:`~repro.fl.FLConfig` it trains under."""
    parser.add_argument("--task", default="cnn", choices=sorted(BENCH_TASKS),
                        help="bench-scale workload")
    parser.add_argument("--scenario", default="medium",
                        choices=sorted(HETEROGENEITY_SCENARIOS),
                        help="heterogeneity scenario (Fig. 3 clusters)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override worker count (half A / half B)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the task's round budget")
    parser.add_argument("--non-iid", type=float, default=0.0,
                        help="non-IID level y (percent or missing classes)")
    parser.add_argument("--sync-scheme", default=FLConfig.sync_scheme,
                        choices=FLConfig._SYNC_SCHEMES,
                        help="aggregation scheme (weighted variants "
                             "weight workers by local sample count)")
    parser.add_argument("--scheduler", default=FLConfig.scheduler,
                        choices=FLConfig._SCHEDULERS,
                        help="round scheduler; 'auto' derives it from "
                             "--async-m / --deadline-s")
    parser.add_argument("--async-m", type=int, default=None,
                        help="enable Algorithm 2 with m first arrivals")
    parser.add_argument("--deadline-s", type=float, default=None,
                        help="enable semi-synchronous rounds with this "
                             "per-round deadline (simulated seconds)")
    parser.add_argument("--target", type=float, default=None,
                        help="stop when the metric reaches this target")
    parser.add_argument("--seed", type=int, default=17)
    # None means "not given": `run --resume` refuses an explicit executor
    parser.add_argument("--executor", default=None,
                        choices=FLConfig._EXECUTORS,
                        help="execution backend for local training: "
                             "'serial' (the default) trains in process, "
                             "'process' fans out to a worker-process pool "
                             "(bitwise-identical results)")
    parser.add_argument("--num-procs", type=int, default=None, metavar="N",
                        help="process-pool size (default: one per CPU, "
                             "clamped to the fleet size)")
    parser.add_argument("--wire-profile", default=FLConfig.wire_profile,
                        choices=FLConfig._WIRE_PROFILES,
                        help="contribution wire profile for "
                             "--executor process: dense float32 (bitwise "
                             "parity), or the top quarter of moved "
                             "positions as exact values or 8-bit deltas")
    parser.add_argument("--nan-policy", default=FLConfig.nan_policy,
                        choices=FLConfig._NAN_POLICIES,
                        help="poisoned-upload handling: reject the round, "
                             "drop the contribution, or disable the scan")
    parser.add_argument("--clients-per-round", type=int, default=None,
                        metavar="M",
                        help="sample M clients per round instead of "
                             "dispatching to the whole fleet")
    parser.add_argument("--history-detail", default=FLConfig.history_detail,
                        choices=FLConfig._HISTORY_DETAILS,
                        help="round-record granularity: per-worker entries "
                             "or per-cohort aggregates (auto switches to "
                             "cohort detail on large fleets)")


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of the commands that train one run and keep what it
    leaves (`run`, `serve`): its checkpoints, history and telemetry."""
    parser.add_argument("--strategy", default="fedmp",
                        choices=sorted(STRATEGIES))
    parser.add_argument("--history", default=None,
                        help="write the round history to this JSON file")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write atomic resume checkpoints "
                             "(ckpt-NNNNNN.ckpt) into DIR")
    parser.add_argument("--checkpoint-every", type=int,
                        default=FLConfig.checkpoint_every, metavar="N",
                        help="checkpoint cadence in rounds "
                             "(default: every round)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="resume from a checkpoint file or directory "
                             "(latest checkpoint wins); workload flags are "
                             "taken from the checkpoint, a service's "
                             "roster and streams resume mid-position, and "
                             "the finished run is byte-identical to an "
                             "uninterrupted one")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write engine spans/events as JSONL to FILE")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the metrics registry as JSON to FILE")
    parser.add_argument("--metrics-export", default=None, metavar="FILE",
                        help="write the metrics registry in "
                             "OpenMetrics/Prometheus text format to FILE")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live metrics at "
                             "http://127.0.0.1:PORT/metrics during the run "
                             "(0 picks an ephemeral port)")
    parser.add_argument("--manifest", default=None, metavar="FILE",
                        help="write a run-manifest JSON (artifacts, "
                             "resolved flags, git SHA) to FILE")


def _make_telemetry(args) -> Optional[Telemetry]:
    """Build the Telemetry bundle the run flags ask for (None if none)."""
    # only `run` profiles: a served worker trains in a client process
    profile_worker = getattr(args, "profile_worker", None)
    wants_metrics = any(
        value is not None
        for value in (args.metrics_out, args.metrics_export,
                      args.metrics_port)
    )
    if args.trace_out is None and profile_worker is None \
            and not wants_metrics:
        return None
    tracer = Tracer(JsonlSink(args.trace_out)) \
        if args.trace_out is not None else Tracer()
    metrics = MetricsRegistry(enabled=wants_metrics)
    profiler = LayerProfiler(profile_worker) \
        if profile_worker is not None else None
    return Telemetry(tracer=tracer, metrics=metrics, profiler=profiler)


def prepare_run(task_key: str, strategy: str, args):
    """``(task, devices, config, checkpoint_meta, resume_from)`` for a
    `run`, `compare` or `serve` command line.

    The one place parsed flags become an experiment: every command
    trains on what this returns, and so do ``repro verify``'s
    in-process references.  With ``--resume``, ``config`` is ``None``
    and ``resume_from`` is the loaded checkpoint.
    """
    # `compare` keeps no checkpoints: it has no --resume / --checkpoint-*
    resume = getattr(args, "resume", None)
    if resume is not None:
        from repro.fl.checkpoint import (
            apply_resume_overrides,
            load_checkpoint,
            resolve_checkpoint,
        )

        checkpoint = load_checkpoint(resolve_checkpoint(resume))
        # explicit run-shape flags override the checkpointed config
        # (with a ResumeOverrideWarning naming what changed) instead of
        # being silently ignored; byte-identity holds only when they
        # match the checkpoint
        overrides = {
            field: value for field, value in (
                ("clients_per_round", args.clients_per_round),
                ("max_rounds", args.rounds),
                ("target_metric", args.target))
            if value is not None
        }
        if overrides:
            apply_resume_overrides(checkpoint, **overrides)
        # the checkpoint's meta pins the workload it was taken from;
        # CLI workload flags only fill gaps (e.g. pre-meta checkpoints)
        meta = checkpoint.meta or {}
        bench_task = make_bench_task(meta.get("task", task_key))
        devices = make_devices(meta.get("scenario", args.scenario),
                               count=meta.get("workers", args.workers))
        task = bench_task.make_task(meta.get("non_iid", args.non_iid))
        return task, devices, None, checkpoint.meta, checkpoint
    bench_task = make_bench_task(task_key)
    devices = make_devices(args.scenario, count=args.workers)
    overrides = dict(
        sync_scheme=args.sync_scheme,
        scheduler=args.scheduler,
        async_m=args.async_m,
        semi_sync_deadline_s=args.deadline_s,
        target_metric=args.target,
        seed=args.seed,
        executor=args.executor or FLConfig.executor,
        num_procs=args.num_procs,
        wire_profile=args.wire_profile,
        nan_policy=args.nan_policy,
        clients_per_round=args.clients_per_round,
        history_detail=args.history_detail,
    )
    if hasattr(args, "checkpoint_dir"):
        overrides.update(checkpoint_dir=args.checkpoint_dir,
                         checkpoint_every=args.checkpoint_every)
    if args.rounds is not None:
        overrides["max_rounds"] = args.rounds
    config = bench_task.make_config(strategy, **overrides)
    task = bench_task.make_task(args.non_iid)
    checkpoint_meta = None
    if config.checkpoint_dir is not None:
        # recorded in every checkpoint so `repro run --resume` can
        # rebuild the same task and device fleet without extra flags
        checkpoint_meta = {"task": task_key, "scenario": args.scenario,
                           "workers": args.workers,
                           "non_iid": args.non_iid}
    return task, devices, config, checkpoint_meta, None


def _build_history(args, hooks=None, telemetry=None) -> "TrainingHistory":
    """Train ``args``' run in this process."""
    task, devices, config, checkpoint_meta, resume_from = prepare_run(
        args.task, args.strategy, args)
    return run_federated_training(task, devices, config, hooks=hooks,
                                  telemetry=telemetry,
                                  checkpoint_meta=checkpoint_meta,
                                  resume_from=resume_from)


def _serve_history(args, hooks=None, telemetry=None) -> "TrainingHistory":
    """Train ``args``' run through a socket service whose workers are
    `repro client` processes."""
    from repro.serve import FedMPService

    task, devices, config, checkpoint_meta, resume_from = prepare_run(
        args.task, args.strategy, args)
    service = FedMPService(
        task, devices, config,
        host=args.host, port=args.port,
        telemetry=telemetry, hooks=hooks,
        checkpoint_meta=checkpoint_meta, resume_from=resume_from,
        min_workers=args.min_workers,
        roster_script=_parse_roster_script(args.roster_script),
        drain_timeout_s=args.drain_timeout_s,
        registration_timeout_s=args.registration_timeout_s,
    )
    host, port = service.address
    print(f"serving on {host}:{port} "
          f"({len(service.roster)} worker slot(s), "
          f"min_workers={service.min_workers})")
    if args.port_file is not None:
        Path(args.port_file).write_text(f"{port}\n", encoding="utf-8")
    sys.stdout.flush()
    history = service.run()
    print("fleet: " + "  ".join(
        f"{kind}={count}" for kind, count in sorted(
            service.counters.items())
    ))
    return history


def _print_summary(args, history, timing: TimingHook,
                   comm: CommVolumeHook) -> None:
    if not history.rounds:
        print("no rounds completed")
        return
    label = METHOD_LABELS.get(args.strategy, args.strategy)
    print(f"{label} on {make_bench_task(args.task).label} "
          f"({args.scenario} scenario):")
    for sim_time, metric in history.accuracy_curve():
        print(f"  t={sim_time:9.1f}s  metric={metric:.4f}")
    print(f"final metric: {history.final_metric():.4f} "
          f"after {len(history.rounds)} rounds "
          f"({history.total_time_s:.1f} simulated seconds)")
    print(f"round time: mean {history.mean_round_time():.1f}s  "
          f"p50 {history.percentile_round_time(50):.1f}s  "
          f"p95 {history.percentile_round_time(95):.1f}s  "
          f"(PS overhead {history.total_overhead_s:.3f}s)")
    print(f"comm volume: {comm.total_download_params / 1e6:.2f}M params "
          f"down, {comm.total_upload_params / 1e6:.2f}M up "
          f"(host time {timing.total_wall_time_s:.1f}s)")


def _cmd_run(args, extra_hooks=()) -> int:
    # a resume trains on its checkpoint's executor (ROADMAP item 22)
    given = [flag for flag, value in (("--executor", args.executor),
                                      ("--num-procs", args.num_procs))
             if value is not None]
    if args.resume is not None and given:
        print(f"error: --resume keeps the checkpoint's executor; drop "
              f"{' and '.join(given)}", file=sys.stderr)
        return 2
    if args.executor == "process" and args.profile_worker is not None:
        print("error: --profile-worker requires --executor serial "
              "(the profiled modules train in child processes)",
              file=sys.stderr)
        return 2
    return _train_and_report(args, _build_history, extra_hooks)


def _cmd_serve(args, extra_hooks=()) -> int:
    if args.executor == "process":
        # the socket executor is injected through the engine's executor
        # seam; the stored config stays "serial" so the checkpoint also
        # resumes under plain `repro run --resume`
        print("error: `repro serve` always trains through the socket "
              "executor; drop --executor", file=sys.stderr)
        return 2
    return _train_and_report(args, _serve_history, extra_hooks)


def _train_and_report(args, train, extra_hooks) -> int:
    """The body of `run` and `serve`: hooks, telemetry and scrape
    server around ``train(args, hooks=, telemetry=)``, which returns
    the history, then the summary and every artifact asked for."""
    timing = TimingHook()
    comm = CommVolumeHook()
    hooks = [timing, comm, *extra_hooks]
    telemetry = _make_telemetry(args)
    scrape_server = None
    if telemetry is not None:
        hooks.append(TelemetryHook(telemetry))
        if args.metrics_port is not None:
            from repro.telemetry import MetricsHTTPServer

            scrape_server = MetricsHTTPServer(telemetry.metrics,
                                              port=args.metrics_port)
            print(f"serving metrics at {scrape_server.url}")
    try:
        history = train(args, hooks=hooks, telemetry=telemetry)
    finally:
        if scrape_server is not None:
            scrape_server.close()
    _print_summary(args, history, timing, comm)
    if telemetry is not None:
        if telemetry.profiler is not None:
            telemetry.profiler.publish(telemetry.metrics)
            print_profile_summary(telemetry.profiler)
        if telemetry.metrics.enabled:
            print_metrics_summary(telemetry.metrics)
            if args.metrics_out is not None:
                telemetry.metrics.save(args.metrics_out)
                print(f"metrics written to {args.metrics_out}")
            if args.metrics_export is not None:
                telemetry.metrics.export_openmetrics(args.metrics_export)
                print(f"openmetrics written to {args.metrics_export}")
        telemetry.close()
        if args.trace_out is not None:
            print(f"trace written to {args.trace_out}")
    if args.history:
        save_history(history, args.history)
        print(f"history written to {args.history}")
    if args.manifest is not None:
        from repro.telemetry import write_run_manifest

        write_run_manifest(
            args.manifest,
            config={key: value for key, value in sorted(vars(args).items())
                    if key != "func"},
            artifacts={
                "trace": args.trace_out,
                "metrics": args.metrics_out,
                "metrics_export": args.metrics_export,
                "history": args.history,
            },
            extra={"result": {
                "final_metric": history.final_metric(),
                "rounds": len(history.rounds),
                "sim_time_s": history.total_time_s,
            }},
        )
        print(f"manifest written to {args.manifest}")
    return 0


def _cmd_compare(args) -> int:
    bench_task = make_bench_task(args.task)
    target = args.target if args.target is not None \
        else bench_task.target_metric
    print(f"{bench_task.label}, target {target}:")
    baseline_time: Optional[float] = None
    for strategy in args.strategies:
        history = _build_history(argparse.Namespace(
            **{**vars(args), "strategy": strategy, "target": target}))
        reached = history.time_to_target(target)
        time_text = f"{reached:10.1f}s" if reached is not None else "        --"
        if baseline_time is None and reached is not None:
            baseline_time = reached
        speedup = (
            f"{baseline_time / reached:.2f}x"
            if baseline_time and reached else "--"
        )
        label = METHOD_LABELS.get(strategy, strategy)
        print(f"  {label:<10} time-to-target {time_text}  "
              f"final {history.final_metric():.4f}  speedup {speedup}")
    return 0


def _cmd_verify(args) -> int:
    from repro.verify.run import run_verification

    report = run_verification(
        preset=args.preset, rounds=args.rounds,
        tolerance_ulps=args.tolerance,
        scenario=args.scenario, workers=args.workers, seed=args.seed,
        executor=args.executor, num_procs=args.num_procs,
        stages=args.stages, artifact_dir=args.artifact_dir,
    )
    print(report.describe())
    return 0 if report.passed else 1


def _stage_prefixes(text: str) -> List[str]:
    """``--stages``: comma-separated prefixes of the battery's stage
    names; one that names no stage is a usage error."""
    from repro.verify.run import select_stages

    prefixes = text.split(",")
    try:
        select_stages(prefixes, executor="process")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return prefixes


def _parse_roster_script(text: Optional[str]):
    """``--roster-script``: inline JSON or a path to a JSON file."""
    if text is None:
        return None
    import json

    path = Path(text)
    raw = path.read_text(encoding="utf-8") if path.exists() else text
    script = json.loads(raw)
    return {int(round_index): [int(w) for w in workers]
            for round_index, workers in script.items()}


def _cmd_client(args) -> int:
    from repro.serve import ServiceClient

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print("error: --connect expects HOST:PORT", file=sys.stderr)
        return 2
    client = ServiceClient(
        (host, int(port_text)),
        worker_id=args.worker_id,
        heartbeat_s=args.heartbeat_s,
        reconnect=args.reconnect,
        reconnect_timeout_s=args.reconnect_timeout,
        leave_after=args.leave_after,
    )
    completed = client.run()
    print(f"worker {client.worker_id}: {completed} dispatch(es) "
          f"completed")
    return 0


def _fmt_s(value: float) -> str:
    return f"{value:.4f}"


def _cmd_trace_summary(args) -> int:
    from repro.experiments.reporting import print_table
    from repro.telemetry import (
        build_tree,
        load_trace,
        phase_breakdown,
        round_summaries,
        round_trends,
    )

    roots = build_tree(load_trace(args.trace))
    if not roots:
        print(f"error: {args.trace} contains no spans", file=sys.stderr)
        return 2

    breakdown = phase_breakdown(roots, round_index=args.round)
    scope = "all rounds" if args.round is None else f"round {args.round}"
    print_table(
        f"Phase breakdown ({scope}) -- {args.trace}",
        ("phase", "count", "total_s", "self_s", "mean_s", "max_s"),
        [(entry["phase"], entry["count"], _fmt_s(entry["total_s"]),
          _fmt_s(entry["self_s"]), _fmt_s(entry["mean_s"]),
          _fmt_s(entry["max_s"]))
         for entry in breakdown],
        note="self_s excludes child spans, so the column sums to wall "
             "time without double-charging nested phases",
    )

    summaries = round_summaries(roots)
    if summaries:
        print_table(
            "Per-round critical path",
            ("round", "duration_s", "untracked_s", "critical path"),
            [(summary["round"], _fmt_s(summary["duration_s"]),
              _fmt_s(summary["untracked_s"]),
              " > ".join(
                  f"{step['name']}:{_fmt_s(step['duration_s'])}"
                  for step in summary["critical_path"]))
             for summary in summaries],
            note="each step is the longest child at its level; shrink "
                 "the leaf to shorten the round",
        )

        trends = round_trends(roots)
        rows = [("round", trends["rounds"]["count"],
                 _fmt_s(trends["rounds"]["p50_s"]),
                 _fmt_s(trends["rounds"]["p95_s"]),
                 _fmt_s(trends["rounds"]["p99_s"]),
                 _fmt_s(trends["rounds"]["max_s"]))]
        rows.extend(
            (phase, stats["count"], _fmt_s(stats["p50_s"]),
             _fmt_s(stats["p95_s"]), _fmt_s(stats["p99_s"]),
             _fmt_s(stats["max_s"]))
            for phase, stats in trends["phases"].items()
        )
        print_table("Round-time trends",
                    ("series", "n", "p50_s", "p95_s", "p99_s", "max_s"),
                    rows)
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.experiments.reporting import print_table
    from repro.telemetry import diff_traces, load_trace

    rows = diff_traces(load_trace(args.trace_a), load_trace(args.trace_b))
    print_table(
        f"Trace diff: A={args.trace_a}  B={args.trace_b}",
        ("phase", "n A", "n B", "total A (s)", "total B (s)",
         "delta (s)", "mean ratio"),
        [(row["phase"], row["count_a"], row["count_b"],
          _fmt_s(row["total_a_s"]), _fmt_s(row["total_b_s"]),
          f"{row['delta_total_s']:+.4f}",
          "--" if row["ratio"] is None else f"{row['ratio']:.2f}x")
         for row in rows],
        note="sorted by delta (B minus A): the top rows are where B "
             "got slower",
    )
    slowest = rows[0] if rows else None
    if slowest is not None and slowest["delta_total_s"] > 0:
        print(f"\nbiggest slowdown: {slowest['phase']} "
              f"(+{slowest['delta_total_s']:.4f}s total"
              + (f", {slowest['ratio']:.2f}x mean)"
                 if slowest["ratio"] else ")"))
    return 0


def _cmd_trace_folded(args) -> int:
    from repro.telemetry import build_tree, folded_stacks, load_trace

    text = folded_stacks(build_tree(load_trace(args.trace)))
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"folded stacks written to {args.out} "
              f"(feed to flamegraph.pl / speedscope / inferno)")
    else:
        print(text, end="")
    return 0


def _cmd_devices(args) -> int:
    devices = make_devices(args.scenario, count=args.workers)
    print(f"scenario {args.scenario!r}: {len(devices)} devices")
    for device_id, cluster, mode, mbps in scenario_table(devices):
        print(f"  device {device_id:2d}  cluster {cluster}  "
              f"mode {mode}  {mbps:5.1f} Mbps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FedMP reproduction command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one experiment")
    _add_workload_arguments(run_parser)
    _add_output_arguments(run_parser)
    run_parser.add_argument("--profile-worker", type=int, default=None,
                            metavar="N",
                            help="profile worker N's per-layer "
                                 "forward/backward")
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="race several strategies to a target")
    _add_workload_arguments(compare_parser)
    compare_parser.add_argument(
        "--strategies", nargs="+", default=["synfl", "fedmp"],
        choices=sorted(STRATEGIES),
    )
    compare_parser.set_defaults(func=_cmd_compare)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the parameter server as a long-lived TCP service "
             "(workers connect with `repro client`)")
    _add_workload_arguments(serve_parser)
    _add_output_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="listen address (default loopback)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="listen port (0 picks an ephemeral "
                                   "port; see --port-file)")
    serve_parser.add_argument("--port-file", default=None, metavar="FILE",
                              help="write the bound port to FILE once "
                                   "listening (lets scripts wait on an "
                                   "ephemeral port)")
    serve_parser.add_argument("--min-workers", type=int, default=1,
                              metavar="N",
                              help="hold round 0 until N workers have "
                                   "registered")
    serve_parser.add_argument("--roster-script", default=None,
                              metavar="JSON",
                              help="pin membership per round for "
                                   "differential runs: {round: [worker "
                                   "ids]} as inline JSON or a JSON file "
                                   "path (largest key <= round applies)")
    serve_parser.add_argument("--drain-timeout-s", type=float,
                              default=10.0, metavar="S",
                              help="grace window at shutdown for clients "
                                   "to leave (held polls are told to drain "
                                   "at once; this bounds a busy one)")
    serve_parser.add_argument("--registration-timeout-s", type=float,
                              default=120.0, metavar="S",
                              help="give up waiting for the roster to "
                                   "fill after S seconds")
    serve_parser.set_defaults(func=_cmd_serve)

    client_parser = subparsers.add_parser(
        "client",
        help="run one worker process against a `repro serve` endpoint")
    client_parser.add_argument("--connect", required=True,
                               metavar="HOST:PORT",
                               help="service address to dial")
    client_parser.add_argument("--worker-id", type=int, default=None,
                               help="claim a specific worker slot "
                                    "(default: first free slot)")
    client_parser.add_argument("--heartbeat-s", type=float, default=2.0,
                               metavar="S",
                               help="heartbeat cadence while idle")
    client_parser.add_argument("--reconnect", action="store_true",
                               help="redial (keeping the worker id) if "
                                    "the connection drops -- e.g. while "
                                    "a SIGKILLed service resumes")
    client_parser.add_argument("--reconnect-timeout", type=float,
                               default=60.0, metavar="S",
                               help="give up redialling after S seconds "
                                    "of consecutive failures")
    client_parser.add_argument("--leave-after", type=int, default=None,
                               metavar="N",
                               help="leave gracefully after N completed "
                                    "dispatches (churn testing)")
    client_parser.set_defaults(func=_cmd_client)

    devices_parser = subparsers.add_parser(
        "devices", help="print a scenario's simulated device fleet")
    devices_parser.add_argument("--scenario", default="medium",
                                choices=sorted(HETEROGENEITY_SCENARIOS))
    devices_parser.add_argument("--workers", type=int, default=None)
    devices_parser.set_defaults(func=_cmd_devices)

    verify_parser = subparsers.add_parser(
        "verify",
        help="run the verification battery (invariants, differential "
             "engine-vs-reference / sync-vs-semisync, fault conformance, "
             "kill-and-resume, loopback-socket service mode)")
    verify_parser.add_argument("--preset", default="cnn",
                               choices=sorted(BENCH_TASKS),
                               help="bench-scale workload to verify on")
    verify_parser.add_argument("--rounds", type=int, default=5,
                               help="rounds per verification run")
    verify_parser.add_argument("--tolerance", type=int, default=0,
                               metavar="ULPS",
                               help="tolerance of every differential "
                                    "row (specified bitwise identical: "
                                    "default 0)")
    verify_parser.add_argument("--scenario", default="medium",
                               choices=sorted(HETEROGENEITY_SCENARIOS))
    verify_parser.add_argument("--workers", type=int, default=None,
                               help="override worker count (half A / half B)")
    verify_parser.add_argument("--seed", type=int, default=17)
    verify_parser.add_argument("--executor", default=FLConfig.executor,
                               choices=FLConfig._EXECUTORS,
                               help="'process' adds the serial-vs-process "
                                    "parity stage (0-ULP states + "
                                    "byte-identical history)")
    verify_parser.add_argument("--num-procs", type=int, default=None,
                               metavar="N",
                               help="pool size for the process stage")
    verify_parser.add_argument("--stages", type=_stage_prefixes,
                               default=None, metavar="PREFIX[,...]",
                               help="run only the stages whose names start "
                                    "with one of these prefixes, e.g. "
                                    "checkpoint/ or service/ (default: "
                                    "every stage)")
    verify_parser.add_argument("--artifact-dir", default=None, metavar="DIR",
                               help="keep every subprocess leg's logs, "
                                    "checkpoints, history and trace under "
                                    "DIR instead of a temporary directory")
    verify_parser.set_defaults(func=_cmd_verify)

    trace_parser = subparsers.add_parser(
        "trace", help="offline analytics over a span-trace JSONL file")
    trace_subparsers = trace_parser.add_subparsers(
        dest="trace_command", required=True)

    trace_summary = trace_subparsers.add_parser(
        "summary",
        help="phase breakdown, per-round critical paths, p50/p95/p99 "
             "round-time trends")
    trace_summary.add_argument("trace", help="span JSONL file "
                                             "(from --trace-out)")
    trace_summary.add_argument("--round", type=int, default=None,
                               help="restrict the phase breakdown to one "
                                    "round index")
    trace_summary.set_defaults(func=_cmd_trace_summary)

    trace_diff = trace_subparsers.add_parser(
        "diff", help="compare two traces phase-by-phase (B minus A)")
    trace_diff.add_argument("trace_a", help="baseline trace JSONL")
    trace_diff.add_argument("trace_b", help="candidate trace JSONL")
    trace_diff.set_defaults(func=_cmd_trace_diff)

    trace_folded = trace_subparsers.add_parser(
        "folded",
        help="emit folded stacks (self-time in microseconds) for "
             "flamegraph tools")
    trace_folded.add_argument("trace", help="span JSONL file")
    trace_folded.add_argument("--out", default=None,
                              help="write to this file instead of stdout")
    trace_folded.set_defaults(func=_cmd_trace_folded)
    return parser


def main(argv: Optional[List[str]] = None, hooks: Sequence = ()) -> int:
    """Run one ``repro`` command line.

    ``hooks`` are extra round hooks for `run` and `serve`.  They are a
    test seam, not a flag: ``python -m repro.verify --kill-at K`` passes
    the hook that SIGKILLs the run in round K through it.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, hooks) if hooks else args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly with
        # the conventional SIGPIPE status instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
