"""Hermetic process environment and host fingerprint.

Nothing here imports NumPy at module scope: :func:`bootstrap` must run
before the first NumPy import so the BLAS thread pins take effect, in
this process and in every pool child it later forks or spawns (children
inherit the environment).
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

PERF_DIR = Path(__file__).resolve().parent.parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
#: scratch space for checkpoints, inside the checkout and git-ignored
WORK_DIR = ROOT / ".perf_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin every BLAS backend NumPy may link to one thread.

    GEMM reduction order follows the BLAS thread count, so an unpinned
    run is neither bitwise reproducible nor comparable across hosts.
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def bootstrap() -> None:
    """Pin BLAS and put the program under test on ``sys.path``.

    Exits with status 2 when the checkout has no ``src/repro`` -- the
    benchmark measures this repository's program and must not fall back
    to some other installed copy.
    """
    if "numpy" in sys.modules:
        raise RuntimeError(
            "bootstrap() must run before NumPy is imported, or the BLAS "
            "thread pins are ignored"
        )
    pin_blas_threads()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _descendants() -> List[int]:
    """PIDs of every process descended from this one (zombies too)."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # gone between the listing and the read
            continue
        # "pid (comm) state ppid ...": comm may itself hold ")" or " "
        parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += children
        frontier += children
    return found


def _ended(pid: int) -> bool:
    """Reap ``pid`` if it is our child and has exited; for a deeper
    descendant (not ours to reap), whether it is gone or a zombie."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] == pid
    except ChildProcessError:
        pass
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The program's own ``close()`` joins its pool children, but the
    interpreter's ``multiprocessing`` resource tracker (started with the
    first shared-memory template segment) outlives it: it only exits
    once this process's end of its pipe closes, that is *after* this
    process is gone.  A benchmark run must leave nothing behind, so the
    tracker is stopped and reaped here, and whatever else is still
    alive on a failure path (a pool child after a timeout) is
    terminated, then killed.
    """
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None:
        # unlinking later (the module's atexit hook) would start a
        # fresh tracker after this one is stopped
        shm.unlink_all()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        try:
            tracker._stop()  # closes its pipe, then waits for its exit
        except Exception:  # a tracker already dead must not fail a run
            pass
    pending = _descendants()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pending:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while True:
            pending = [pid for pid in pending if not _ended(pid)]
            if not pending or time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        if not pending:
            return


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas_build() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def source_lines() -> int:
    """``wc -l`` over ``src/repro/**/*.py`` (ROADMAP aim 2; not gated)."""
    total = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def fingerprint(seed: int) -> Dict[str, object]:
    """Host and numerics identity of the process producing a report."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": _blas_build(),
        "blas_threads": {
            name: os.environ.get(name) for name in BLAS_THREAD_VARS
        },
        "git_sha": _git_sha(),
        "seed": seed,
        "src_loc": source_lines(),
    }
