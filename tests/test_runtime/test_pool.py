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
from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.tasks import ClassificationTask, _SequenceBatchIterator
from repro.fl.worker import Worker
from repro.runtime.codec import TrainHyper, decode_contribution, encode_dispatch
from repro.runtime.pool import InFlight, ProcessPool, WorkerSpec
from repro.runtime.transport import (
    RetryPolicy,
    TransportTimeoutError,
    WorkerCrashError,
)
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from tests.support.receivers import slow_receivers


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
@pytest.fixture(scope="module")
def engine():
    dataset = make_synthetic_mnist(train_per_class=8, test_per_class=2,
                                   rng=np.random.default_rng(0))
    fleet = make_scenario_devices({"A": 2, "B": 2}, np.random.default_rng(7))
    engine = Engine(ClassificationTask(dataset, "cnn"), fleet, FLConfig(
        strategy="fixed", strategy_kwargs={"ratio": 0.3}, max_rounds=1,
        local_iterations=2, batch_size=8, lr=0.05, seed=11))
    yield engine
    engine.close()


def _specs(engine):
    """Every worker's spec, in fleet order (builds no worker)."""
    return [engine.workers.spec(wid) for wid in engine.worker_ids]


def _frames(engine):
    """One dispatch frame per worker, each carrying its stream record."""
    dispatches = engine.dispatch_many(
        {worker_id: 0.3 for worker_id in engine.worker_ids}, 0.0, 0)
    return {
        worker_id: encode_dispatch(
            worker_id, d.plan, d.dispatched_state, tau=3,
            hyper=TrainHyper(lr=0.05),
            stream=engine.workers[worker_id].stream(),
        )
        for worker_id, d in dispatches.items()
    }


def _pool(engine, **kwargs) -> ProcessPool:
    return ProcessPool(_specs(engine), num_procs=2,
                       skeleton=engine.model, **kwargs)


def _flights(frames):
    return [InFlight(worker_id, frame) for worker_id, frame in frames.items()]


def test_same_frame_on_either_child_gives_identical_reply_bytes(engine):
    """A flight's result is a function of its frame alone: either child,
    and the same child again, replies with the same bytes (bar the
    measured wall time the reply reports, and so the CRC)."""
    worker_id, frame = next(iter(_frames(engine).items()))
    pool = _pool(engine)
    try:   # the pump starts with the first flight: the pipes are free
        replies = []
        for index in (0, 1, 0):
            pool.members[index].conn.send(frame)
            op, reply = pool.members[index].conn.recv()
            assert op == "ok"
            replies.append(reply)
    finally:
        pool.close()
    # header 8 | worker, samples u32 | loss f64 | wall f64 | ... | crc32
    masked = {reply[:24] + reply[32:-4] for reply in replies}
    assert len(masked) == 1
    payload = decode_contribution(replies[0])
    assert payload.stream.worker_id == worker_id
    assert payload.stream.cursor != engine.workers[worker_id].stream().cursor


def test_sigkilled_child_with_queued_flights_is_a_crash_not_a_hang(
        engine, monkeypatch):
    slow_receivers(monkeypatch, engine.worker_ids, 0.5)
    pool = _pool(engine, retry=RetryPolicy(timeout_s=30.0, max_retries=4,
                                           backoff_s=0.1))
    flights = _flights(_frames(engine))
    try:
        pool.submit(flights)
        time.sleep(0.2)          # both children are mid-flight
        os.kill(pool.members[0].proc.pid, signal.SIGKILL)
        start = time.perf_counter()
        with pytest.raises(WorkerCrashError):
            pool.gather(flights)
        assert time.perf_counter() - start < 10.0
    finally:
        pool.close(join_timeout_s=2.0)


def test_gather_past_its_budget_raises_typed_timeout(engine, monkeypatch):
    """Flights that outlast the retry budget end the gather in a typed
    timeout, with each empty interval counted as a retry."""
    metrics = MetricsRegistry()
    slow_receivers(monkeypatch, engine.worker_ids, 5.0)
    pool = _pool(engine, metrics=metrics,
                 retry=RetryPolicy(timeout_s=0.5, backoff_s=0.05))
    flights = _flights(_frames(engine))
    try:
        start = time.perf_counter()
        with pytest.raises(TransportTimeoutError):
            pool.gather(flights)
        assert time.perf_counter() - start < 3.0
    finally:
        pool.close(join_timeout_s=1.0)
    assert metrics.counter("retries_total", transport="process").value >= 1


def test_close_with_uncollected_flights_reaps_children_and_pump(
        engine, monkeypatch):
    slow_receivers(monkeypatch, engine.worker_ids, 2.0)
    pool = _pool(engine)
    pool.submit(_flights(_frames(engine)))
    time.sleep(0.2)              # two sent, two still queued
    start = time.perf_counter()
    pool.close(join_timeout_s=2.0)
    assert time.perf_counter() - start < 3.0
    assert not pool._pump.is_alive()
    assert all(not member.proc.is_alive() for member in pool.members)


def test_close_is_eof_in_the_children_with_a_later_pool_alive():
    """Closing a pool's pipe ends is EOF in its children (they exit on
    their own, status 0) although a pool forked after it exists: the
    later pool's children closed their copies of those ends."""
    specs = [_batch_spec(seed=wid, worker_id=wid) for wid in range(2)]
    first = ProcessPool(specs, None, num_procs=2)
    second = ProcessPool(specs, None, num_procs=2)
    try:
        start = time.perf_counter()
        first.close(join_timeout_s=5.0)
        assert time.perf_counter() - start < 2.0
        assert [member.proc.exitcode for member in first.members] == [0, 0]
    finally:
        first.close()
        second.close()


def test_pool_under_thread_switch_pressure_loses_no_flight(engine):
    """More children than cores and a tiny switch interval between the
    main thread and the pump: every flight is answered exactly once
    with the same bits, and the busy account adds up -- a lost update
    to the queue or the account would break one of them."""
    frames = _frames(engine)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ProcessPool(_specs(engine), num_procs=3,
                       skeleton=engine.model)
    try:
        rounds = []
        for _ in range(3):
            flights = _flights(frames)
            pool.submit(flights[:2])     # the rest go in with the gather
            pool.gather(flights)
            rounds.append(flights)
        busy = pool.busy_s
    finally:
        sys.setswitchinterval(switch)
        pool.close()
    for flights in rounds:
        assert [decode_contribution(f.reply).worker_id for f in flights] \
            == list(frames)
        # header 8 | worker, samples u32 | loss f64 | wall f64 | ... | crc
        assert [f.reply[:24] + f.reply[32:-4] for f in flights] \
            == [f.reply[:24] + f.reply[32:-4] for f in rounds[0]]
    assert busy == pytest.approx(sum(f.busy_s for fs in rounds for f in fs))


def test_pool_size_clamped_to_fleet():
    specs = [_batch_spec(seed=9, worker_id=0)]
    pool = ProcessPool(specs, None, num_procs=8)
    try:
        assert len(pool) == 1
    finally:
        pool.close()


def test_pool_rejects_empty_fleet():
    with pytest.raises(ValueError, match="at least one"):
        ProcessPool([], None)


_POOL_OWNER = """
import sys, time
sys.path[:0] = {paths!r}
from tests.test_runtime.test_pool import _batch_spec
from repro.runtime.pool import ProcessPool

pool = ProcessPool([_batch_spec(seed=wid, worker_id=wid) for wid in range(3)],
                   None, num_procs=3)
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
