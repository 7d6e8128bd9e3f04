"""Command-line interface."""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_rejects_unknown_task():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--task", "transformer"])


def test_parser_rejects_unknown_strategy():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--strategy", "magic"])


def test_devices_command(capsys):
    assert main(["devices", "--scenario", "high"]) == 0
    out = capsys.readouterr().out
    assert "10 devices" in out
    assert "cluster C" in out


def test_run_command_writes_history(tmp_path, capsys):
    history_path = tmp_path / "history.json"
    code = main([
        "run", "--task", "cnn", "--strategy", "synfl",
        "--rounds", "2", "--seed", "1",
        "--history", str(history_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "final metric" in out
    payload = json.loads(history_path.read_text())
    assert payload["strategy"] == "synfl"
    assert len(payload["rounds"]) == 2


def test_run_without_a_round_reports_it(tmp_path, capsys):
    """An empty history (here ``--rounds 0``) gets the summary line and
    a manifest, not a formatting error on its missing final metric."""
    manifest = tmp_path / "manifest.json"
    assert main(["run", "--task", "cnn", "--rounds", "0",
                 "--manifest", str(manifest)]) == 0
    assert "no rounds completed" in capsys.readouterr().out
    assert json.loads(manifest.read_text())["result"]["rounds"] == 0


def test_compare_command(capsys):
    code = main([
        "compare", "--task", "cnn", "--rounds", "2",
        "--strategies", "synfl", "fedmp", "--target", "2.0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Syn-FL" in out
    assert "FedMP" in out


def test_run_process_executor_matches_serial_history(tmp_path, capsys):
    """`--executor process` must produce the same run as serial (the
    CLI-level view of the runtime's 0-ULP parity guarantee)."""
    serial_path = tmp_path / "serial.json"
    process_path = tmp_path / "process.json"
    base = ["run", "--task", "cnn", "--strategy", "synfl",
            "--rounds", "1", "--seed", "3"]
    assert main(base + ["--history", str(serial_path)]) == 0
    assert main(base + ["--executor", "process", "--num-procs", "2",
                        "--history", str(process_path)]) == 0
    capsys.readouterr()
    serial = json.loads(serial_path.read_text())
    process = json.loads(process_path.read_text())
    for entry in serial["rounds"] + process["rounds"]:
        entry["overhead_s"] = 0.0  # host time, not behaviour
        (entry.get("extras") or {}).pop("wall_time_s", None)
    assert serial == process


def test_run_nan_policy_and_history_detail_flags_reach_config(
        tmp_path, capsys):
    history_path = tmp_path / "history.json"
    code = main([
        "run", "--task", "cnn", "--strategy", "synfl",
        "--rounds", "1", "--seed", "1", "--nan-policy", "skip",
        "--history-detail", "cohort", "--history", str(history_path),
    ])
    assert code == 0
    capsys.readouterr()
    rounds = json.loads(history_path.read_text())["rounds"]
    assert rounds and rounds[0]["cohorts"] and not rounds[0]["ratios"]


@pytest.mark.parametrize("flag", ["--no-fast-path", "--cohort-rounds"])
def test_run_rejects_the_removed_path_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", flag])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_rejects_profiler_with_process_executor(capsys):
    code = main([
        "run", "--task", "cnn", "--strategy", "synfl", "--rounds", "1",
        "--executor", "process", "--profile-worker", "0",
    ])
    assert code == 2
    assert "--profile-worker" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--executor", "process"],
                                   ["--executor", "serial"],
                                   ["--num-procs", "2"],
                                   ["--executor", "process", "--num-procs",
                                    "2"]])
def test_run_resume_rejects_executor_flags(flags, tmp_path, monkeypatch,
                                           capsys):
    """A resume trains on the checkpoint's executor, so `run --resume`
    refuses the flags that would pick one -- an explicit `serial` too --
    before it reads the checkpoint (the path need not exist)."""
    import repro.cli

    def _no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(repro.cli, "_build_history", _no_run)
    code = main(["run", "--resume", str(tmp_path / "missing"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    for flag in flags[::2]:
        assert flag in err


def test_serve_accepts_an_explicit_serial_executor(tmp_path, monkeypatch,
                                                   capsys):
    """`--executor serial` names the default, so `repro serve` builds its
    service with it; `--executor process` it refuses."""
    import repro.serve

    class _Built(Exception):
        pass

    def _build(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(repro.serve, "FedMPService", _build)
    monkeypatch.chdir(tmp_path)
    base = ["serve", "--task", "lstm", "--rounds", "1",
            "--port-file", "port.txt", "--executor"]
    with pytest.raises(_Built):
        main(base + ["serial"])
    assert main(base + ["process"]) == 2
    assert "--executor" in capsys.readouterr().err


def _wait_for_port(port_file, alive, timeout_s=60.0):
    """The port a `repro serve` leg writes to ``port_file`` once bound."""
    deadline = time.monotonic() + timeout_s
    while not port_file.exists() or not port_file.read_text().strip():
        assert alive() and time.monotonic() < deadline, \
            "the service never wrote its port"
        time.sleep(0.02)
    return int(port_file.read_text())


def test_serve_writes_every_artifact_it_accepts(tmp_path, capsys):
    """A served run honours the telemetry and artifact flags exactly as
    `repro run` does: trace, metrics JSON, OpenMetrics, a scrape
    endpoint that lives as long as the run, history and manifest."""
    import re
    import urllib.request

    from repro.serve import ServiceClient
    from repro.telemetry import build_tree, load_trace
    from tests.support.telemetry import parse_openmetrics

    port_file = tmp_path / "port"
    paths = {name: tmp_path / name for name in (
        "trace.jsonl", "metrics.json", "metrics.om", "history.json",
        "manifest.json")}
    box = {}

    def serve(argv):
        # on a thread, so the service installs no signal handler here
        try:
            box["code"] = main(argv)
        except BaseException as exc:  # surfaced by the assertion below
            box["error"] = exc

    thread = threading.Thread(target=serve, daemon=True, args=([
        "serve", "--task", "lstm", "--rounds", "2", "--workers", "2",
        "--min-workers", "2", "--port-file", str(port_file),
        "--trace-out", str(paths["trace.jsonl"]),
        "--metrics-out", str(paths["metrics.json"]),
        "--metrics-export", str(paths["metrics.om"]),
        "--metrics-port", "0",
        "--history", str(paths["history.json"]),
        "--manifest", str(paths["manifest.json"]),
    ],))
    thread.start()
    port = _wait_for_port(port_file, thread.is_alive)
    match = re.search(r"serving metrics at (http://\S+)",
                      capsys.readouterr().out)
    assert match, "no scrape URL announced"
    with urllib.request.urlopen(match.group(1), timeout=5) as response:
        assert response.status == 200
        parse_openmetrics(response.read().decode())
    clients = [threading.Thread(
        target=ServiceClient(("127.0.0.1", port)).run, daemon=True)
        for _ in range(2)]
    for client in clients:
        client.start()
    for worker in [thread, *clients]:
        worker.join(timeout=180)
        assert not worker.is_alive()
    assert box == {"code": 0}
    out = capsys.readouterr().out
    assert "final metric" in out and "fleet: " in out

    assert [n.name for n in build_tree(load_trace(paths["trace.jsonl"]))] \
        == ["round", "round"]
    json.loads(paths["metrics.json"].read_text())
    families = parse_openmetrics(paths["metrics.om"].read_text())
    assert families["aggregations"].sample_value("aggregations_total") == 2
    assert len(json.loads(paths["history.json"].read_text())["rounds"]) == 2
    manifest = json.loads(paths["manifest.json"].read_text())
    assert manifest["kind"] == "repro-run-manifest"
    assert manifest["config"]["command"] == "serve"
    assert manifest["artifacts"] == {
        "trace": str(paths["trace.jsonl"]),
        "metrics": str(paths["metrics.json"]),
        "metrics_export": str(paths["metrics.om"]),
        "history": str(paths["history.json"]),
    }
    assert manifest["result"]["rounds"] == 2
    with pytest.raises(OSError):  # closed once the run finished
        urllib.request.urlopen(match.group(1), timeout=1)


def test_a_drained_serve_still_writes_its_manifest(tmp_path):
    """SIGTERM before any worker registers drains the service with no
    round done; the manifest is written all the same."""
    import os
    import signal
    import subprocess
    import sys

    import repro

    port_file = tmp_path / "port"
    manifest = tmp_path / "manifest.json"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--task", "lstm",
         "--rounds", "2", "--workers", "2", "--min-workers", "2",
         "--port-file", str(port_file), "--manifest", str(manifest)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        _wait_for_port(port_file, lambda: proc.poll() is None)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, out.decode(errors="replace")
    assert b"no rounds completed" in out
    payload = json.loads(manifest.read_text())
    assert payload["result"] == {"final_metric": None, "rounds": 0,
                                 "sim_time_s": 0.0}


@pytest.mark.parametrize("command, flag, value", [
    *[("compare", flag, value) for flag, value in (
        ("--trace-out", "t.jsonl"), ("--metrics-out", "m.json"),
        ("--metrics-export", "m.om"), ("--metrics-port", "0"),
        ("--manifest", "manifest.json"), ("--profile-worker", "0"))],
    ("serve", "--profile-worker", "0"),
])
def test_run_like_commands_refuse_flags_they_do_not_honour(
        command, flag, value, tmp_path, monkeypatch, capsys):
    """`compare` keeps no artifacts and `serve` profiles no worker: argparse
    refuses the flags (exit 2) before any training or file write."""
    import repro.cli
    import repro.serve

    def _no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(repro.cli, "_build_history", _no_run)
    monkeypatch.setattr(repro.serve, "FedMPService", _no_run)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--task", "cnn", "--rounds", "2", flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _battery_argvs():
    """The `run` / `serve` command lines `repro verify` builds: plain,
    process, served and sampled-fleet."""
    from dataclasses import replace

    from repro.verify.harness import RunSpec, churn_roster

    plain = RunSpec(preset="cnn", rounds=3, workers=6, seed=17)
    return [spec.argv() for spec in (
        plain,
        replace(plain, executor="process", num_procs=2),
        replace(plain, workers=4, served=True, roster=churn_roster(4, 3)),
        replace(plain, workers=200, clients_per_round=4, kill_at=1),
    )]


GOLDEN_CONFIGS = Path(__file__).with_name("golden_cli_configs.json")


def test_prepare_run_builds_the_pinned_configs():
    """Every pinned command line (the verify battery's, this file's and
    the CI smoke runs') still yields the same FLConfig and checkpoint
    meta, field for field.  The pin was cut before the run-like
    commands shared one flag pipeline."""
    from dataclasses import asdict

    from repro.cli import prepare_run

    cases = json.loads(GOLDEN_CONFIGS.read_text())
    pinned = [case["argv"] for case in cases]
    for argv in _battery_argvs():
        assert argv in pinned
    parser = build_parser()
    for case in cases:
        args = parser.parse_args(case["argv"])
        _, _, config, meta, _ = prepare_run(args.task, case["strategy"],
                                            args)
        built = json.loads(json.dumps(asdict(config)))
        assert (built, meta) == (case["config"], case["checkpoint_meta"]), \
            case["argv"]


def test_verify_parser_accepts_executor_flags():
    parser = build_parser()
    args = parser.parse_args(["verify", "--executor", "process",
                              "--num-procs", "2"])
    assert args.executor == "process"
    assert args.num_procs == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--executor", "threads"])


def test_run_exporters_and_manifest(tmp_path, capsys):
    """One run feeds every observability exit: trace JSONL that the
    analytics can read, an OpenMetrics file that round-trips through
    the parser, and a manifest tying the artifacts together."""
    from repro.telemetry import build_tree, load_trace
    from tests.support.telemetry import parse_openmetrics

    trace = tmp_path / "trace.jsonl"
    om = tmp_path / "metrics.om"
    manifest = tmp_path / "manifest.json"
    code = main([
        "run", "--task", "cnn", "--strategy", "synfl",
        "--rounds", "2", "--seed", "1",
        "--trace-out", str(trace),
        "--metrics-export", str(om),
        "--manifest", str(manifest),
    ])
    assert code == 0
    capsys.readouterr()

    roots = build_tree(load_trace(trace))
    assert [n.name for n in roots] == ["round", "round"]

    families = parse_openmetrics(om.read_text())
    assert families["aggregations"].sample_value("aggregations_total") == 2
    assert "round_time_s" in families

    payload = json.loads(manifest.read_text())
    assert payload["kind"] == "repro-run-manifest"
    assert payload["config"]["task"] == "cnn"
    assert payload["artifacts"]["trace"] == str(trace)
    assert payload["artifacts"]["metrics_export"] == str(om)
    assert "metrics" not in payload["artifacts"]  # --metrics-out unset
    assert payload["result"]["rounds"] == 2


def test_run_metrics_port_serves_scrapes(tmp_path, capsys):
    import re
    import urllib.request

    from tests.support.telemetry import parse_openmetrics

    code = main([
        "run", "--task", "cnn", "--strategy", "synfl",
        "--rounds", "1", "--seed", "1", "--metrics-port", "0",
    ])
    assert code == 0
    out = capsys.readouterr().out
    match = re.search(r"serving metrics at (http://\S+)", out)
    assert match, f"no scrape URL announced in: {out!r}"
    # the server is closed once the run finishes
    with pytest.raises(OSError):
        urllib.request.urlopen(match.group(1), timeout=1)


def test_trace_subcommands(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "--task", "cnn", "--strategy", "synfl",
                 "--rounds", "2", "--seed", "1",
                 "--trace-out", str(trace)]) == 0
    capsys.readouterr()

    assert main(["trace", "summary", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "Phase breakdown" in out
    assert "critical path" in out
    assert "round" in out

    assert main(["trace", "summary", str(trace), "--round", "1"]) == 0
    assert "round 1" in capsys.readouterr().out

    assert main(["trace", "diff", str(trace), str(trace)]) == 0
    out = capsys.readouterr().out
    assert "1.00x" in out

    folded = tmp_path / "folded.txt"
    assert main(["trace", "folded", str(trace),
                 "--out", str(folded)]) == 0
    capsys.readouterr()
    lines = folded.read_text().strip().splitlines()
    assert lines
    for line in lines:
        stack, count = line.rsplit(" ", 1)
        assert stack.split(";")[0] == "round"
        assert int(count) > 0


def test_exporters_keep_history_bitwise_pinned(tmp_path, capsys):
    """Turning every exporter on (trace, OpenMetrics, scrape endpoint,
    manifest) must not perturb training: the history is identical to a
    bare run's, modulo host-time fields."""
    bare_path = tmp_path / "bare.json"
    instrumented_path = tmp_path / "instrumented.json"
    base = ["run", "--task", "cnn", "--strategy", "fedmp",
            "--rounds", "2", "--seed", "11"]
    assert main(base + ["--history", str(bare_path)]) == 0
    assert main(base + [
        "--history", str(instrumented_path),
        "--trace-out", str(tmp_path / "t.jsonl"),
        "--metrics-export", str(tmp_path / "m.om"),
        "--metrics-port", "0",
        "--manifest", str(tmp_path / "manifest.json"),
    ]) == 0
    capsys.readouterr()
    bare = json.loads(bare_path.read_text())
    instrumented = json.loads(instrumented_path.read_text())
    for entry in bare["rounds"] + instrumented["rounds"]:
        entry["overhead_s"] = 0.0  # host time, not behaviour
        extras = entry.get("extras") or {}
        extras.pop("wall_time_s", None)  # host time
        extras.pop("eucb", None)  # observability payload, not training
    assert bare == instrumented
