"""The in-process plane's flights: thread-count invariance, errors, memory.

``SerialExecutor`` trains a round's independent flights (a per-member
cohort's members, a stacked cohort's member slices) on
``executor.flight_threads()`` threads.  Forcing that count to 1, 2 and
3 must change no bit of the history or of the final global state.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_cifar10, make_synthetic_mnist
from repro.experiments import fleet
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.nn import functional as F
from repro.runtime import executor as executor_module
from repro.runtime.codec import TrainHyper
from repro.runtime.executor import CohortTrainRequest
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.profiler import LayerProfiler
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import Tracer
from repro.verify.differential import normalised_history_bytes
from tests.support.telemetry import ListSink

THREADS = (1, 2, 3)


@pytest.fixture(scope="module")
def mnist():
    return make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def cifar():
    return make_synthetic_cifar10(train_per_class=6, test_per_class=2,
                                  rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices({"A": 3, "B": 2}, np.random.default_rng(7))


def _config(**overrides) -> FLConfig:
    base = dict(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                max_rounds=3, local_iterations=2, batch_size=8, lr=0.05,
                eval_every=1, seed=11)
    base.update(overrides)
    return FLConfig(**base)


def _run(monkeypatch, threads, task, devices, config, telemetry=None):
    """History bytes and final global state of one run at ``threads``."""
    monkeypatch.setattr(executor_module, "flight_threads", lambda: threads)
    engine = Engine(task, devices, config, telemetry=telemetry)
    try:
        history = make_scheduler(config).run(engine)
        return normalised_history_bytes(history), engine.global_state
    finally:
        engine.close()


def _assert_thread_count_invariant(monkeypatch, make_task, devices, config,
                                   make_telemetry=lambda: None):
    runs = [_run(monkeypatch, threads, make_task(), devices, config,
                 make_telemetry())
            for threads in THREADS]
    history, state = runs[0]
    for threads, (other_history, other_state) in zip(THREADS[1:], runs[1:]):
        assert other_history == history, f"history at {threads} threads"
        assert set(other_state) == set(state)
        for key, value in state.items():
            np.testing.assert_array_equal(
                other_state[key].view(np.uint32), value.view(np.uint32),
                err_msg=f"{key} at {threads} threads")


def test_flight_threads_divides_the_cpus_by_the_blas_threads(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(F, "openblas_threads", lambda: 1)
    assert executor_module.flight_threads() == cpus
    monkeypatch.setattr(F, "openblas_threads", lambda: cpus)
    assert executor_module.flight_threads() == 1
    monkeypatch.setattr(F, "openblas_threads", lambda: None)
    assert executor_module.flight_threads() == 1


def test_cnn_r2sp_rounds_are_thread_count_invariant(monkeypatch, mnist,
                                                    devices):
    """FedMP's round 0 is two stacked (ratio, cluster) cohorts, sliced;
    after the warm-up every worker is a per-member flight."""
    _assert_thread_count_invariant(
        monkeypatch, lambda: ClassificationTask(mnist, "cnn"), devices,
        _config(strategy="fedmp", sync_scheme="r2sp",
                strategy_kwargs={"warmup_rounds": 1}))


def test_fleet_cohort_slices_that_do_not_divide_evenly(monkeypatch):
    """Cohorts of 7 and 4 members: 4+3 / 2+2 at two threads, 3+2+2 /
    2+1+1 at three."""
    _assert_thread_count_invariant(
        monkeypatch, fleet.make_task, fleet.make_fleet(40),
        _config(clients_per_round=11, local_iterations=3,
                clip_norm=0.5, momentum=0.9))


def test_async_rounds_are_thread_count_invariant(monkeypatch, mnist,
                                                 devices):
    _assert_thread_count_invariant(
        monkeypatch, lambda: ClassificationTask(mnist, "cnn"), devices,
        _config(scheduler="async", async_m=2, max_rounds=4))


def test_dropout_flights_are_thread_count_invariant(monkeypatch, cifar,
                                                    devices):
    """Every alexnet worker is a cohort of one whose clone carries its
    own Dropout generator."""
    _assert_thread_count_invariant(
        monkeypatch,
        lambda: ClassificationTask(
            cifar, "alexnet",
            model_kwargs={"width_mult": 0.125, "dropout": 0.1}),
        devices, _config(max_rounds=2, local_iterations=1, batch_size=4))


def test_profiled_runs_are_thread_count_invariant(monkeypatch, mnist,
                                                  devices):
    """A profiler sends every cohort down the per-member path and times
    one worker's layers on whichever thread trains it."""
    profilers = []

    def telemetry():
        profilers.append(LayerProfiler(1))
        return Telemetry(profiler=profilers[-1])

    _assert_thread_count_invariant(
        monkeypatch, lambda: ClassificationTask(mnist, "cnn"), devices,
        _config(), telemetry)
    assert [p.attach_count for p in profilers] == [3] * len(THREADS)
    assert all(p.records for p in profilers)


def test_spans_stay_one_per_member_and_cohort_under_their_round(
        monkeypatch, mnist, devices):
    """With flights on threads every span still opens on the calling
    thread: a ``local_train`` per per-member flight (with its own
    seconds) and a ``cohort_train`` per stacked cohort, each under its
    round."""
    monkeypatch.setattr(executor_module, "flight_threads", lambda: 2)
    sink = ListSink()
    config = _config(strategy="fedmp", strategy_kwargs={"warmup_rounds": 1})
    engine = Engine(ClassificationTask(mnist, "cnn"), devices, config,
                    telemetry=Telemetry(tracer=Tracer(sink)))
    try:
        make_scheduler(config).run(engine)
    finally:
        engine.close()
    rounds = {span["span_id"] for span in sink.spans("round")}
    trains, cohorts = sink.spans("local_train"), sink.spans("cohort_train")
    assert len(trains) + sum(s["attrs"]["members"] for s in cohorts) \
        == config.max_rounds * len(devices)
    assert trains and cohorts
    assert all(span["parent_id"] in rounds for span in trains + cohorts)
    assert all(span["attrs"]["worker_wall_s"] > 0.0 for span in trains)


def test_the_first_error_in_submission_order_wins():
    """Flight 2 fails first, flight 1 later; flight 3 never starts."""
    started = []
    one_may_fail = threading.Event()

    def flight(index):
        def run():
            started.append(index)
            if index == 1:
                one_may_fail.wait(5.0)
                raise RuntimeError("flight 1")
            if index == 2:
                one_may_fail.set()
                raise RuntimeError("flight 2")
            return index
        return run

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="flight 1"):
        executor_module._fan_out([flight(i) for i in range(4)], 2)
    assert sorted(started) == [0, 1, 2]
    assert threading.active_count() == before
    assert executor_module._fan_out([flight(0), flight(3)], 2) == [0, 3]


def test_run_round_leaves_no_thread_behind(monkeypatch, mnist, devices):
    monkeypatch.setattr(executor_module, "flight_threads", lambda: 3)
    engine = Engine(ClassificationTask(mnist, "cnn"), devices,
                    _config(strategy="fedmp",
                            strategy_kwargs={"warmup_rounds": 1}))
    counts = []
    run_round = engine.executor.run_round

    def counting(requests, round_index):
        before = threading.active_count()
        batches = run_round(requests, round_index)
        counts.append((before, threading.active_count()))
        return batches

    engine.executor.run_round = counting
    try:
        make_scheduler(engine.config).run(engine)
    finally:
        engine.close()
    assert len(counts) == 3
    assert all(before == after for before, after in counts)


def test_a_per_member_cohort_holds_one_clone_at_a_time(monkeypatch, cifar):
    """Five alexnet members of one non-vectorisable cohort: each clone
    lives only while its member trains, so the traced peak stays below
    one member's training peak plus the five returned states."""
    monkeypatch.setattr(executor_module, "flight_threads", lambda: 1)
    devices = make_scenario_devices({"A": 7}, np.random.default_rng(3))
    engine = Engine(
        ClassificationTask(cifar, "alexnet",
                           model_kwargs={"width_mult": 0.25,
                                         "dropout": 0.1}),
        devices, _config(local_iterations=1, batch_size=4))
    try:
        ids = list(engine.worker_ids)
        dispatched = engine.dispatch_many({ids[0]: 0.3}, 0.0, 0)
        template = dispatched[ids[0]].cohort
        hyper = TrainHyper(lr=0.05)

        def cohort(worker_ids):
            return [CohortTrainRequest(
                cohort=template, worker_ids=worker_ids,
                taus=[1] * len(worker_ids), hyper=hyper)]

        engine.executor.run_round(cohort(ids[:1]), 0)   # warm caches

        def peak(worker_ids):
            tracemalloc.start()
            try:
                [results] = engine.executor.run_round(cohort(worker_ids), 0)
                return tracemalloc.get_traced_memory()[1], results
            finally:
                tracemalloc.stop()

        one, _ = peak(ids[1:2])
        five, results = peak(ids[2:7])
        state_bytes = sum(value.nbytes
                          for value in results[0].sub_state.values())
        assert len(results) == 5
        assert five < one + 5 * state_bytes
    finally:
        engine.close()


def test_flight_timing_does_not_reorder_results(monkeypatch):
    """Later flights that finish first still come back in order."""
    def flight(index, delay):
        def run():
            time.sleep(delay)
            return index
        return run

    delays = [0.05, 0.0, 0.02, 0.0, 0.0]
    assert executor_module._fan_out(
        [flight(i, d) for i, d in enumerate(delays)], 3) == list(range(5))
