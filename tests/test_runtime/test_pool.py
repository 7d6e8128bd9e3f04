"""WorkerSpec reconstruction parity and process-pool plumbing.

The RNG-derivation contract pinned here (see ``Worker.__init__`` and
``repro.runtime.pool``): one generator seeded from ``WorkerSpec.seed``
is consumed first by the data iterator's construction and then by the
worker's single timing-seed draw.  ``WorkerSpec.build`` is the one
construction path (the engine's lazy fleet, pool children, service
clients), so its draw order is pinned against raw generator calls, and
the construction order is load-bearing.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.data.loader import BatchIterator
from repro.fl.tasks import _SequenceBatchIterator
from repro.fl.worker import Worker
from repro.runtime.pool import ProcessPool, WorkerSpec
from repro.simulation.cluster import make_scenario_devices


def _device(index: int = 0):
    return make_scenario_devices({"A": 2}, np.random.default_rng(3))[index]


def _batch_spec(seed: int = 123, worker_id: int = 5) -> WorkerSpec:
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(24, 1, 8, 8)).astype(np.float32)
    targets = rng.integers(0, 4, size=24).astype(np.int64)
    return WorkerSpec(
        worker_id=worker_id, seed=seed, shard_inputs=inputs,
        shard_targets=targets, batch_size=8, device=_device(),
        jitter_sigma=0.08, num_samples=24,
    )


def _sequence_spec(seed: int = 77, worker_id: int = 2) -> WorkerSpec:
    rng = np.random.default_rng(1)
    inputs = rng.integers(0, 30, size=(10, 6, 4)).astype(np.int64)
    targets = rng.integers(0, 30, size=(10, 6, 4)).astype(np.int64)
    return WorkerSpec(
        worker_id=worker_id, seed=seed, shard_inputs=inputs,
        shard_targets=targets, batch_size=4, device=_device(),
        jitter_sigma=0.05, num_samples=10, iterator_kind="sequence",
    )


def _rng_state(generator: np.random.Generator):
    return generator.bit_generator.state


# ----------------------------------------------------------------------
# RNG-derivation contract
# ----------------------------------------------------------------------
def test_batch_spec_rebuild_matches_manual_construction():
    spec = _batch_spec()
    rebuilt = spec.build()

    rng = np.random.default_rng(spec.seed)
    iterator = BatchIterator(spec.shard_inputs, spec.shard_targets,
                             spec.batch_size, rng=rng)
    reference = Worker(spec.worker_id, iterator, spec.device,
                       jitter_sigma=spec.jitter_sigma, rng=rng,
                       num_samples=spec.num_samples)

    assert _rng_state(rebuilt.timing.rng) == _rng_state(reference.timing.rng)
    assert _rng_state(rebuilt.rng) == _rng_state(reference.rng)
    for _ in range(6):
        got = rebuilt.iterator.next_batch()
        want = reference.iterator.next_batch()
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
    # the jitter streams stay locked after the batch draws too
    assert np.array_equal(rebuilt.timing.rng.normal(size=8),
                          reference.timing.rng.normal(size=8))


def test_sequence_spec_rebuild_matches_manual_construction():
    spec = _sequence_spec()
    rebuilt = spec.build()

    rng = np.random.default_rng(spec.seed)
    iterator = _SequenceBatchIterator(spec.shard_inputs,
                                      spec.shard_targets, rng)
    reference = Worker(spec.worker_id, iterator, spec.device,
                       jitter_sigma=spec.jitter_sigma, rng=rng,
                       num_samples=spec.num_samples)

    assert _rng_state(rebuilt.timing.rng) == _rng_state(reference.timing.rng)
    for _ in range(6):
        got = rebuilt.iterator.next_batch()
        want = reference.iterator.next_batch()
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_build_draw_order_matches_an_inline_reference():
    """``build`` is the one construction path (the engine's fleet, pool
    children, service clients), so its draw order is pinned against the
    raw generator calls it must make: the epoch permutation, then one
    ``integers(2**31)`` seeding the jitter stream."""
    spec = _batch_spec()
    worker = spec.build()

    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(spec.num_samples)
    timing = np.random.default_rng(rng.integers(2 ** 31))
    assert np.array_equal(worker.iterator._order, order)
    assert _rng_state(worker.rng) == _rng_state(rng)
    assert _rng_state(worker.timing.rng) == _rng_state(timing)


def test_construction_order_is_load_bearing():
    """Drawing the timing seed BEFORE the iterator's construction must
    shift the jitter stream -- guards against reordering
    ``WorkerSpec.build`` / ``Worker.__init__``."""
    spec = _batch_spec()
    reference = spec.build()

    rng = np.random.default_rng(spec.seed)
    swapped = Worker(spec.worker_id, iterator=None, device=spec.device,
                     jitter_sigma=spec.jitter_sigma, rng=rng,
                     num_samples=spec.num_samples)
    assert _rng_state(swapped.timing.rng) != _rng_state(reference.timing.rng)


def test_iterator_kind_validated():
    with pytest.raises(ValueError, match="iterator_kind"):
        _spec = _batch_spec()
        WorkerSpec(
            worker_id=0, seed=1, shard_inputs=_spec.shard_inputs,
            shard_targets=_spec.shard_targets, batch_size=4,
            device=_spec.device, jitter_sigma=0.1, num_samples=4,
            iterator_kind="stream",
        )


# ----------------------------------------------------------------------
# pool plumbing
# ----------------------------------------------------------------------
def test_pool_round_robin_assignment_is_deterministic():
    specs = [_batch_spec(seed=10 + wid, worker_id=wid)
             for wid in (3, 1, 2, 0)]
    pool = ProcessPool(specs, num_procs=2)
    try:
        assert len(pool) == 2
        # sorted ids, dealt round-robin
        assert pool.members[0].worker_ids == [0, 2]
        assert pool.members[1].worker_ids == [1, 3]
        for member in pool.members:
            for worker_id in member.worker_ids:
                assert pool.by_worker[worker_id] is member
    finally:
        pool.close()


def test_pool_size_clamped_to_fleet():
    specs = [_batch_spec(seed=9, worker_id=0)]
    pool = ProcessPool(specs, num_procs=8)
    try:
        assert len(pool) == 1
    finally:
        pool.close()


def test_pool_rejects_empty_fleet():
    with pytest.raises(ValueError, match="at least one"):
        ProcessPool([])


_POOL_OWNER = """
import sys, time
sys.path[:0] = {paths!r}
from tests.test_runtime.test_pool import _batch_spec
from repro.runtime.pool import ProcessPool

pool = ProcessPool([_batch_spec(seed=wid, worker_id=wid) for wid in range(3)],
                   num_procs=3)
pool.ping()
print(*(member.proc.pid for member in pool.members), flush=True)
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # a zombie (reparented, not yet reaped) has already exited
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to observe foreign pids")
def test_pool_children_exit_when_the_parent_is_sigkilled():
    """Regression: a forked child used to inherit the parent-side end
    of its own pipe (and of every earlier member's), so a SIGKILLed
    parent never produced EOF and all children outlived it."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    script = _POOL_OWNER.format(paths=[root, os.path.join(root, "src")])
    owner = subprocess.Popen([sys.executable, "-c", script],
                             stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 3 and all(_alive(pid) for pid in pids)
        owner.send_signal(signal.SIGKILL)
        owner.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
    finally:
        owner.kill()
        owner.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    assert survivors == []
