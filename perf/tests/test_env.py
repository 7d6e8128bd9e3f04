"""A run leaves no process behind: ``env.stop_children`` and the run
that uses the shared-memory wire (whose resource tracker outlives a
plain interpreter exit)."""

import os
import subprocess
import sys
import time
from pathlib import Path

from harness import env

STUBBORN = """
import signal, subprocess, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
subprocess.Popen(["sleep", "60"])
print("up", flush=True)
time.sleep(60)
"""


def _state(pid: int):
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def _session_members(session_id: int):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == session_id:
            members.append(int(entry))
    return members


def test_stop_children_ends_a_child_ignoring_sigterm_and_its_child():
    child = subprocess.Popen([sys.executable, "-c", STUBBORN],
                             stdout=subprocess.PIPE)
    assert child.stdout.readline().strip() == b"up"
    started = [pid for pid in env._descendants() if pid != child.pid]
    assert started, "the grandchild should be listed"
    begin = time.monotonic()
    env.stop_children(grace_s=0.5)
    assert time.monotonic() - begin < 5.0
    assert _state(child.pid) is None  # killed and reaped
    for pid in started:  # not ours to reap: gone, or a zombie of init's
        assert _state(pid) in (None, "Z")
    child.stdout.close()


def test_stop_children_without_children_returns_at_once():
    begin = time.monotonic()
    env.stop_children(grace_s=5.0)
    assert time.monotonic() - begin < 1.0


def test_process_workload_run_leaves_no_process_in_its_session():
    run = subprocess.Popen(
        [sys.executable, str(env.PERF_DIR / "run.py"), "--workload",
         "cnn_async_process", "--seed", "3", "--seconds", "20",
         "--trace", "0", "--quick"],
        stdout=subprocess.PIPE, start_new_session=True)
    out, _ = run.communicate(timeout=120)
    assert run.returncode == 0
    assert b'"correct": true' in out.splitlines()[-1]
    assert _session_members(run.pid) == []
