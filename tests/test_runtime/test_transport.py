"""Transport semantics: backoff, crashes, stragglers.

The one wait loop's timeout and retry accounting are pinned where the
links use it: ``test_pool.py`` (the pool's gather), ``test_sockets.py``
(a client's request) and ``test_service.py`` (the service's gather).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.pool import InFlight, ProcessPool, WorkerSpec
from repro.runtime.transport import (
    RetryPolicy,
    StragglerDetector,
    WorkerCrashError,
)
from repro.simulation.cluster import make_scenario_devices


def _make_pool() -> ProcessPool:
    """A one-child pool that never trains: no skeleton."""
    rng = np.random.default_rng(0)
    device = make_scenario_devices({"A": 1}, np.random.default_rng(3))[0]
    spec = WorkerSpec(
        worker_id=0, seed=11,
        shard_inputs=rng.normal(size=(8, 1, 4, 4)).astype(np.float32),
        shard_targets=rng.integers(0, 2, size=8).astype(np.int64),
        batch_size=4, device=device, jitter_sigma=0.05, num_samples=8,
    )
    return ProcessPool([spec], None, num_procs=1,
                       retry=RetryPolicy(timeout_s=2.0, backoff_s=0.05))


def test_backoff_schedule():
    policy = RetryPolicy(backoff_s=0.25, backoff_factor=2.0)
    assert policy.backoff(0) == pytest.approx(0.25)
    assert policy.backoff(2) == pytest.approx(1.0)


def test_dead_member_raises_worker_crash_error():
    """A child that died before its first flight (at start-up, say)
    surfaces at the first gather, typed."""
    pool = _make_pool()
    try:
        member = pool.members[0]
        member.proc.terminate()
        member.proc.join(timeout=5.0)
        with pytest.raises(WorkerCrashError):
            pool.gather([InFlight(0, b"a frame nobody trains")])
    finally:
        pool.close(join_timeout_s=0.5)


# ----------------------------------------------------------------------
# straggler heartbeat
# ----------------------------------------------------------------------
def test_straggler_detector_needs_two_observations():
    detector = StragglerDetector()
    assert detector.flag({}) == []
    assert detector.flag({0: 123.0}) == []


def test_straggler_detector_uniform_batch_is_clean():
    detector = StragglerDetector(quorum_fraction=0.5,
                                 deadline_multiplier=1.5)
    assert detector.flag({i: 1.0 for i in range(4)}) == []


def test_straggler_detector_flags_outlier():
    detector = StragglerDetector(quorum_fraction=0.5,
                                 deadline_multiplier=1.5)
    flagged = detector.flag({0: 1.0, 1: 1.0, 2: 1.0, 3: 10.0})
    assert flagged == [3]
