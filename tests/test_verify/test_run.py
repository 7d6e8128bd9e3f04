"""VerificationReport plumbing, the stage table and the ``repro
verify`` CLI surface.

The full battery itself runs in CI (and via ``python -m repro.cli
verify``); here we pin the report semantics, the table's rows and
argument handling without paying for a single engine run.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.verify.run as verify_run
from repro.cli import build_parser
from repro.verify import CheckResult, VerificationReport
from repro.verify.run import run_verification, select_stages

#: the battery's rows in order, as CI, DESIGN.md and SKILL.md name them
SERIAL_STAGES = [
    "invariants/fedmp",
    "invariants/flexcom",
    "differential/engine_vs_reference",
    "differential/sync_vs_semisync",
    "fault/drop",
    "fault/drop_all",
    "fault/duplicate",
    "fault/poison_raise",
    "fault/poison_skip",
    "fault/stale",
    "fault/zero_samples",
    "checkpoint/kill_and_resume",
    "service/loopback_socket",
    "service/kill_and_resume",
    "service/live_roster_drain",
]
PROCESS_STAGES = (
    SERIAL_STAGES[:12]
    + ["differential/serial_vs_process", "history/serial_vs_process_bytes"]
    + SERIAL_STAGES[12:]
)


def _report(*passed_flags):
    report = VerificationReport(preset="cnn", rounds=3)
    for index, passed in enumerate(passed_flags):
        report.results.append(
            CheckResult(f"check/{index}", passed, "detail text"))
    return report


def test_report_passes_only_when_every_check_does():
    assert _report(True, True).passed
    assert not _report(True, False).passed
    assert not _report(False).passed


def test_report_failures_lists_failed_checks():
    report = _report(True, False, False)
    assert [r.name for r in report.failures()] == ["check/1", "check/2"]


def test_report_describe_marks_each_check():
    text = _report(True, False).describe()
    assert "[PASS] check/0" in text
    assert "[FAIL] check/1" in text
    assert "1 check(s) FAILED" in text
    assert _report(True).describe().endswith("verdict: OK")


def test_run_verification_needs_at_least_two_rounds():
    with pytest.raises(ValueError, match="at least 2 rounds"):
        run_verification(rounds=1)


def test_cli_parses_verify_arguments():
    args = build_parser().parse_args([
        "verify", "--preset", "lstm", "--rounds", "4",
        "--tolerance", "2", "--semisync-tolerance", "8",
        "--workers", "6", "--seed", "3",
    ])
    assert args.preset == "lstm"
    assert args.rounds == 4
    assert args.tolerance == 2
    assert args.semisync_tolerance == 8
    assert args.workers == 6
    assert args.seed == 3


def test_cli_verify_defaults():
    args = build_parser().parse_args(["verify"])
    assert args.preset == "cnn"
    assert args.rounds == 5
    assert args.tolerance == 0
    assert args.semisync_tolerance is None


def test_cli_rejects_unknown_preset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--preset", "transformer"])


@pytest.mark.parametrize("executor, names", [
    ("serial", SERIAL_STAGES), ("process", PROCESS_STAGES)],
    ids=["serial", "process"])
def test_stage_table_is_the_documented_list(executor, names):
    assert [stage.name for stage in select_stages(executor=executor)] \
        == names


def test_stages_prefix_selects_exactly_the_kill_and_resume_row(monkeypatch):
    ran = []

    def fake(name):
        def check(battery):
            ran.append(name)
            return True, "fake"
        return check

    monkeypatch.setattr(verify_run, "STAGES", tuple(
        dataclasses.replace(stage, check=fake(stage.name))
        for stage in verify_run.STAGES))
    args = build_parser().parse_args(["verify", "--stages", "checkpoint/"])
    report = run_verification(rounds=2, stages=args.stages)
    assert ran == [r.name for r in report.results] \
        == ["checkpoint/kill_and_resume"]
    assert report.passed


def test_cli_rejects_unknown_stage_prefix(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--stages", "checkpoint/,nope"])
    assert "nope" in capsys.readouterr().err
    with pytest.raises(ValueError, match="no stage name starts with"):
        run_verification(rounds=2, stages=["nope"])
