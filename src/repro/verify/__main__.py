"""``python -m repro.verify --kill-at K <repro argv...>``: the `repro`
CLI, killed by SIGKILL in ``before_aggregate`` of round K.

The crash leg of the kill-and-resume checks.  ``SIGKILL`` cannot be
caught: no ``finally`` blocks, no atexit, no history flush -- exactly
the crash the checkpoint discipline must survive.
"""

import os
import signal
import sys

from repro.cli import main
from repro.fl.hooks import RoundHook


class SigkillHook(RoundHook):
    """Kill this process in ``before_aggregate`` of round ``kill_at``."""

    def __init__(self, kill_at: int) -> None:
        if kill_at < 1:
            raise ValueError(
                f"kill_at must be >= 1 (a checkpoint must exist to "
                f"resume from), got {kill_at}"
            )
        self.kill_at = kill_at

    def before_aggregate(self, round_index, contributions):
        if round_index >= self.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return None


if __name__ == "__main__":
    argv = sys.argv[1:]
    if len(argv) < 3 or argv[0] != "--kill-at":
        sys.exit("usage: python -m repro.verify --kill-at K "
                 "<repro argv...>")
    main(argv[2:], hooks=[SigkillHook(int(argv[1]))])
    # unreachable when the hook fires
    sys.exit("the run survived its kill point")
