"""Command-line interface."""

from __future__ import annotations

import json

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


@pytest.mark.parametrize("flag, value", [("--metrics-port", "0"),
                                         ("--manifest", "manifest.json")])
def test_serve_rejects_flags_it_cannot_honour(flag, value, tmp_path,
                                              monkeypatch, capsys):
    """`repro serve` starts no scrape server and writes no manifest, so
    it refuses both flags before binding any port or writing any file."""
    import repro.serve
    import repro.telemetry

    def _no_bind(*args, **kwargs):
        raise AssertionError("a port was bound")

    monkeypatch.setattr(repro.serve, "FedMPService", _no_bind)
    monkeypatch.setattr(repro.telemetry, "MetricsHTTPServer", _no_bind)
    monkeypatch.chdir(tmp_path)
    code = main(["serve", "--task", "cnn", "--rounds", "1",
                 "--port-file", "port.txt", flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
