"""Crash conformance: SIGKILL mid-round, resume, byte-identical finish.

The in-process resume tests in ``test_checkpoint.py`` prove restore
fidelity under clean interruption.  This file proves the crash case:
`repro run` is SIGKILLed *between* ``before_aggregate`` and the
history flush -- no teardown, no atexit, torn temp files allowed --
then a fresh `repro run --resume` continues from the last surviving
checkpoint and must finish with the exact bytes the uninterrupted run
produces.

Each case drives the ``checkpoint/kill_and_resume`` row of
``repro verify`` for one scheduler: the legs are the production CLI
(through the ``python -m repro.verify --kill-at K`` shim for the
crash), so this also covers checkpoint loading across process
boundaries.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest

from repro.verify.harness import SCHEDULERS, Harness, RunSpec
from repro.verify.run import run_verification


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_sigkill_resume_is_byte_identical(scheduler):
    passed, detail = Harness().kill_and_resume(
        RunSpec(rounds=3, kill_at=1, workers=4, scheduler=scheduler))
    assert f"{scheduler}: killed at round 1, resumed from" in detail, detail
    assert "history identical" in detail, detail
    assert detail.endswith("final weights at 0 ULPs"), detail
    assert passed


def _stat(pid) -> list:
    stat = Path("/proc", str(pid), "stat").read_text()
    return stat.rsplit(")", 1)[1].split()


def _processes():
    """``{pid: (parent pid, session id)}`` of every process not yet dead.

    A zombie is dead: orphans wait as zombies until init reaps them.
    """
    table = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _stat(entry)
            except OSError:
                continue
            if fields[0] != "Z":
                table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def _descendants(root: int):
    table = _processes()
    found, frontier = set(), {root}
    while frontier:
        frontier = {pid for pid, (ppid, _) in table.items()
                    if ppid in frontier} - found
        found |= frontier
    return found


@pytest.fixture
def leg_sessions(monkeypatch):
    """Record every leg's pid (= its session id) and, after the test,
    assert that nothing it started is still alive: no process in a leg's
    session -- a SIGKILLed leg's orphaned pool children are reparented
    away from us but keep that session -- and no new descendant."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    before = _descendants(os.getpid())
    legs = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        proc = popen(*args, **kwargs)
        legs.append(proc.pid)
        return proc

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    yield legs
    survivors = {pid for pid, (_, session) in _processes().items()
                 if session in legs}
    assert survivors == set()
    assert _descendants(os.getpid()) - before == set()


def test_no_leg_outlives_the_kill_and_resume_row(leg_sessions):
    report = run_verification(rounds=2, workers=4, executor="process",
                              num_procs=2, stages=["checkpoint/kill"])
    assert [r.name for r in report.results] == ["checkpoint/kill_and_resume"]
    assert report.passed, report.describe()
    assert len(leg_sessions) == 2 * len(SCHEDULERS)


def test_no_leg_outlives_a_timed_out_check(leg_sessions):
    # far too short for any leg: the check gives up on a live leg, and
    # its teardown must kill that leg's whole session
    with pytest.raises(TimeoutError, match="did not exit within"):
        Harness(timeout_s=0.2).kill_and_resume(RunSpec(
            rounds=2, workers=4, executor="process", num_procs=2,
            kill_at=1))
    assert leg_sessions
