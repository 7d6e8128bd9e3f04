"""Benchmark regression gating (`repro bench check`)."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.benchcheck import (
    DEFAULT_TOLERANCE,
    compare,
    extract_metrics,
    load_report,
    tolerance_for,
    write_report,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

FLEET_REPORT = {
    "benchmark": "fleet_scale_rounds",
    "smoke": False,
    "fleets": [
        {"fleet": 1000,
         "member_full": {"rounds_per_s": 1.0},
         "cohort_sampled": {"rounds_per_s": 5.0},
         "speedup_vs_member_full": 5.0},
        {"fleet": 100_000,
         "cohort_sampled": {"rounds_per_s": 4.0}},
    ],
}


def regressed(report, factor=20.0):
    clone = copy.deepcopy(report)
    for entry in clone["fleets"]:
        for stats in entry.values():
            if isinstance(stats, dict):
                stats["rounds_per_s"] /= factor
    return clone


def test_extract_fleet_metrics():
    metrics = extract_metrics(FLEET_REPORT)
    assert metrics == {
        "fleet[1000].member_full.rounds_per_s": 1.0,
        "fleet[1000].cohort_sampled.rounds_per_s": 5.0,
        "fleet[100000].cohort_sampled.rounds_per_s": 4.0,
    }


def test_extract_hotpath_metrics():
    hotpath = extract_metrics({
        "benchmark": "dispatch_aggregate_hotpath",
        "speedup_wall": 1.1, "peak_alloc_ratio": 1.5,
    })
    assert hotpath == {"hotpath.speedup_wall": 1.1,
                       "hotpath.peak_alloc_ratio": 1.5}


def test_extract_rejects_unknown_report():
    with pytest.raises(ValueError, match="unrecognised"):
        extract_metrics({"something": "else"})
    # the retired parallel/serve reports (perf/ measures those planes)
    with pytest.raises(ValueError, match="unrecognised"):
        extract_metrics({"benchmark": "serve_loopback", "fleets": []})
    with pytest.raises(ValueError, match="unrecognised"):
        extract_metrics({"modes": {}, "wire_consistency": {}})


def test_self_compare_passes():
    report = compare(FLEET_REPORT, copy.deepcopy(FLEET_REPORT))
    assert report.ok
    assert all(result.ratio == 1.0 for result in report.results)
    assert report.skipped == []


def test_synthetic_regression_fails():
    report = compare(FLEET_REPORT, regressed(FLEET_REPORT))
    assert not report.ok
    assert all(not result.ok for result in report.results)
    assert all(result.ratio == pytest.approx(1 / 20, abs=1e-6)
               for result in report.results)


def test_improvement_and_jitter_pass():
    better = regressed(FLEET_REPORT, factor=0.5)  # 2x faster
    assert compare(FLEET_REPORT, better).ok
    jitter = regressed(FLEET_REPORT, factor=1.2)  # -17%, inside 60%
    assert compare(FLEET_REPORT, jitter).ok


def test_smoke_candidate_skips_unmeasured_modes():
    candidate = {
        "benchmark": "fleet_scale_rounds",
        "smoke": True,
        "fleets": [{"fleet": 100_000,
                    "cohort_sampled": {"rounds_per_s": 3.9}}],
    }
    report = compare(FLEET_REPORT, candidate)
    assert report.ok
    assert [r.metric for r in report.results] == [
        "fleet[100000].cohort_sampled.rounds_per_s"]
    assert sorted(report.skipped) == [
        "fleet[1000].cohort_sampled.rounds_per_s",
        "fleet[1000].member_full.rounds_per_s",
    ]


def test_no_overlap_raises():
    candidate = {"benchmark": "fleet_scale_rounds", "fleets": []}
    with pytest.raises(ValueError, match="no comparable"):
        compare(FLEET_REPORT, candidate)


def test_tolerance_overrides():
    assert tolerance_for("hotpath.speedup_wall") == 0.3
    assert tolerance_for("fleet[1000].cohort_sampled.rounds_per_s") \
        == DEFAULT_TOLERANCE
    # tightening the default flips a mild regression into a failure
    mild = regressed(FLEET_REPORT, factor=1.5)
    assert compare(FLEET_REPORT, mild).ok
    assert not compare(FLEET_REPORT, mild, default_tolerance=0.1).ok


def test_report_round_trips(tmp_path):
    report = compare(FLEET_REPORT, regressed(FLEET_REPORT))
    out = tmp_path / "check.json"
    write_report(out, report)
    loaded = load_report(out)
    assert loaded["kind"] == "repro-bench-check"
    assert loaded["ok"] is False
    assert len(loaded["results"]) == 3


def test_committed_baselines_self_compare():
    """Every committed BENCH_*.json gates cleanly against itself."""
    baselines = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert baselines, "no committed benchmark baselines found"
    for path in baselines:
        report = load_report(path)
        assert compare(report, copy.deepcopy(report), str(path)).ok


def test_cli_bench_check_exit_codes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(FLEET_REPORT))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FLEET_REPORT))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(regressed(FLEET_REPORT)))
    out = tmp_path / "report.json"

    assert main(["bench", "check", "--baseline", str(baseline),
                 "--candidate", str(good)]) == 0
    assert main(["bench", "check", "--baseline", str(baseline),
                 "--candidate", str(bad), "--report", str(out)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "REGRESSION" in captured.err
    assert load_report(out)["ok"] is False
