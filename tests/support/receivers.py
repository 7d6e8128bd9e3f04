"""Pool test instrument: slow chosen flights down in the children."""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Iterable

from repro.runtime import pool
from repro.runtime.codec import decode_dispatch


def slow_receivers(monkeypatch, worker_ids: Iterable[int],
                   seconds: float = 0.0):
    """Make the children of every pool started after this sleep before
    each flight: ``delays[worker_id]`` seconds, read when the flight
    starts.  Returns ``delays``, an array shared with those children, so
    a test may change a worker's delay between rounds."""
    worker_ids = list(worker_ids)
    delays = mp.RawArray("d", max(worker_ids) + 1)
    for worker_id in worker_ids:
        delays[worker_id] = seconds
    handle_train = pool.handle_train

    def slow(workers, skeleton, frame):
        time.sleep(delays[decode_dispatch(frame).worker_id])
        return handle_train(workers, skeleton, frame)

    monkeypatch.setattr(pool, "handle_train", slow)
    return delays
