"""The lazy fleet: a worker is built on its first dispatch.

A worker's state before its first dispatch is a pure function of the
seed the engine drew for it, so ``Engine`` builds none up front:
``engine.workers`` covers the whole fleet and builds each worker
through ``build_workers`` on first access (a round's first
touches in one batch).  Pinned here: no build
before the first dispatch, the seed stream itself, build order
independence, and checkpoints that carry exactly the touched workers
through kills and resumes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fleet
from repro.experiments.setups import make_bench_task, make_devices
from repro.fl.checkpoint import (
    CheckpointError,
    capture_engine_state,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
)
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.hooks import CommVolumeHook, RoundHook, TimingHook
from repro.fl.runner import run_federated_training
from repro.fl.schedulers import make_scheduler
from repro.runtime import pool
from repro.verify.differential import normalised_history_bytes


def _state(generator):
    return generator.bit_generator.state


def _fleet_config(**overrides) -> FLConfig:
    params = dict(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                  max_rounds=1, local_iterations=1, batch_size=8,
                  eval_every=10, seed=7, clients_per_round=8)
    params.update(overrides)
    return FLConfig(**params)


# ----------------------------------------------------------------------
# laziness, seeds, order
# ----------------------------------------------------------------------
def test_no_worker_is_built_before_the_first_dispatch(monkeypatch):
    built = []
    build = pool.build_workers

    def counting_build(specs):
        built.extend(spec.worker_id for spec in specs)
        return build(specs)

    monkeypatch.setattr(pool, "build_workers", counting_build)
    engine = Engine(fleet.make_task(), fleet.make_fleet(20_000),
                    _fleet_config())
    try:
        assert built == []
        assert len(engine.workers) == 20_000
        assert capture_engine_state(engine, "sync", 0)["workers"] == {}
        assert engine.error_feedback == {}
        history = make_scheduler(engine.config).run(engine)
        dispatched = sum(c["members"] for c in history.rounds[0].cohorts)
        assert len(built) == len(set(built)) == dispatched == 8
        assert sorted(engine.worker_runtime_states()) == sorted(built)
    finally:
        engine.close()


@pytest.mark.parametrize("seed", [0, 17, 123456789])
@pytest.mark.parametrize("size", [1, 7, 1000])
def test_vectorised_seed_draw_equals_the_scalar_loop(seed, size):
    """One ``integers(2**31, size=n)`` draw is bit-equal to ``n`` scalar
    draws, generator state afterwards included -- after the model and
    shard draws the engine makes first."""
    vectorised, scalar = (np.random.default_rng(seed) for _ in range(2))
    for rng in (vectorised, scalar):
        rng.integers(2 ** 31)
        rng.integers(2 ** 31)
    seeds = vectorised.integers(2 ** 31, size=size)
    assert seeds.tolist() == [int(scalar.integers(2 ** 31))
                              for _ in range(size)]
    assert _state(vectorised) == _state(scalar)


def test_engine_seeds_are_the_scalar_stream():
    bench = make_bench_task("cnn")
    devices = make_devices("medium", count=6)
    engine = Engine(bench.make_task(0.0), devices,
                    bench.make_config("fedmp", max_rounds=2, seed=5))
    try:
        reference = np.random.default_rng(5)
        reference.integers(2 ** 31)   # model
        reference.integers(2 ** 31)   # shards
        assert [engine.workers.spec(wid).seed for wid in engine.worker_ids] == [
            int(reference.integers(2 ** 31)) for _ in devices]
    finally:
        engine.close()


def test_build_order_does_not_change_any_stream():
    bench = make_bench_task("cnn")
    devices = make_devices("medium", count=6)
    config = bench.make_config("fedmp", max_rounds=2, seed=3)
    forward = Engine(bench.make_task(0.0), devices, config)
    backward = Engine(bench.make_task(0.0), devices, config)
    try:
        ids = list(forward.workers)
        for worker_id in ids:
            forward.workers[worker_id]
        for worker_id in reversed(ids):
            backward.workers[worker_id]
        for worker_id in ids:
            a, b = forward.workers[worker_id], backward.workers[worker_id]
            assert _state(a.timing.rng) == _state(b.timing.rng)
            assert np.array_equal(a.timing.rng.normal(size=4),
                                  b.timing.rng.normal(size=4))
            for _ in range(3):
                got, want = a.iterator.next_batch(), b.iterator.next_batch()
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
    finally:
        forward.close()
        backward.close()


def test_restore_rejects_a_worker_outside_the_fleet():
    bench = make_bench_task("cnn")
    devices = make_devices("medium", count=4)
    config = bench.make_config("fedmp", max_rounds=2, seed=3)
    engine = Engine(bench.make_task(0.0), devices, config)
    try:
        engine.workers[1]
        payload = capture_engine_state(engine, "sync", 0)
    finally:
        engine.close()
    assert list(payload["workers"]) == [1]
    payload["workers"][99] = payload["workers"][1]
    with pytest.raises(CheckpointError, match=r"workers \[99\]"):
        Engine.restore(bench.make_task(0.0), devices,
                       decode_checkpoint(encode_checkpoint(payload)))


# ----------------------------------------------------------------------
# kill, resume, kill, resume on a sampled fleet
# ----------------------------------------------------------------------
ROUNDS = 5
KILLS = (2, 4)


class _Killed(Exception):
    pass


class _Touched(RoundHook):
    """The workers dispatched to so far, as each round closes."""

    def __init__(self) -> None:
        self.seen = set()
        self.by_next_round = {}

    def on_dispatch(self, round_index, dispatch) -> None:
        self.seen.add(dispatch.worker_id)

    def on_round_end(self, record) -> None:
        self.by_next_round[record.round_index + 1] = set(self.seen)


class _KillAt(RoundHook):
    """Abort the run in ``before_aggregate`` of round ``at``: its last
    checkpoint is the one round ``at - 1`` wrote."""

    def __init__(self, at: int) -> None:
        self.at = at

    def before_aggregate(self, round_index, contributions):
        if round_index >= self.at:
            raise _Killed(round_index)
        return None


def _sampled_run(tmp_path, name, scheduler, hooks=(), resume=False):
    bench = make_bench_task("cnn")
    ckpt = tmp_path / name
    config = None if resume else bench.make_config(
        "fedmp", max_rounds=ROUNDS, seed=17, eval_every=ROUNDS,
        clients_per_round=4, checkpoint_dir=str(ckpt),
        **({"async_m": 2} if scheduler == "async" else {}))
    try:
        history = run_federated_training(
            bench.make_task(0.0), make_devices("medium", count=200), config,
            hooks=[TimingHook(), CommVolumeHook(), *hooks],
            resume_from=ckpt if resume else None)
    except _Killed:
        return None
    return history


def _assert_same_workers(got, want, label):
    assert sorted(got) == sorted(want), label
    for worker_id, state in want.items():
        other = got[worker_id]
        assert other["rng"] == state["rng"], (label, worker_id)
        assert other["timing_rng"] == state["timing_rng"], (label, worker_id)
        assert np.array_equal(other["iterator"]["order"],
                              state["iterator"]["order"]), (label, worker_id)
        assert other["iterator"]["cursor"] == state["iterator"]["cursor"]


@pytest.mark.parametrize("scheduler", ["sync", "async"])
def test_kill_resume_kill_resume_carries_exactly_the_touched_workers(
        tmp_path, scheduler):
    """Two kills on a 200-worker fleet sampling 4 a round.  Every
    checkpoint carries exactly the workers dispatched to so far, and the
    interrupted chain's carry them at the uninterrupted run's stream
    positions; its history bytes and final weights are identical.
    Under sync, some worker is touched before the first kill and
    untouched until after the second, so its state reaches the later
    checkpoints only as restored state."""
    touched = _Touched()
    baseline = _sampled_run(tmp_path, "baseline", scheduler, [touched])
    assert _sampled_run(tmp_path, "chain", scheduler,
                        hooks=[_KillAt(KILLS[0])]) is None
    assert _sampled_run(tmp_path, "chain", scheduler,
                        hooks=[_KillAt(KILLS[1])], resume=True) is None
    resumed = _sampled_run(tmp_path, "chain", scheduler, resume=True)

    assert normalised_history_bytes(resumed) \
        == normalised_history_bytes(baseline)
    saved = {}
    for next_round in range(1, ROUNDS + 1):
        name = f"ckpt-{next_round:06d}.ckpt"
        want = load_checkpoint(tmp_path / "baseline" / name).payload
        got = load_checkpoint(tmp_path / "chain" / name).payload
        assert set(want["workers"]) == touched.by_next_round[next_round]
        _assert_same_workers(got["workers"], want["workers"], name)
        saved[next_round] = got["workers"]
    for key, value in want["model_state"].items():
        assert np.array_equal(got["model_state"][key], value), key

    # touched before the first kill, not priced again before the second
    first, second = KILLS
    restored_only = [
        worker_id for worker_id in saved[first]
        if saved[second][worker_id]["timing_rng"]
        == saved[first][worker_id]["timing_rng"]
    ]
    if scheduler == "sync":
        assert restored_only
