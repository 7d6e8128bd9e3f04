"""Live-membership plumbing: churn-safe dispatch queue, strategy
register/retire, and churn x client-sampling determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Dispatch
from repro.fl.runner import run_federated_training
from repro.fl.schedulers import DispatchQueue
from repro.fl.strategies import make_strategy
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.simulation.timing import RoundCosts
from repro.verify.differential import normalised_history_bytes


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


def _dispatch(wid: int, finish: float) -> Dispatch:
    return Dispatch(worker_id=wid, ratio=0.0, cohort=None, tau=1,
                    costs=RoundCosts(computation_s=finish,
                                     download_s=0.0, upload_s=0.0))


# ----------------------------------------------------------------------
# DispatchQueue under churn
# ----------------------------------------------------------------------
def test_queue_discard_skips_stale_heap_entries():
    queue = DispatchQueue()
    for wid, finish in ((0, 1.0), (1, 2.0), (2, 3.0)):
        queue.add(_dispatch(wid, finish))
    assert queue.discard(0).worker_id == 0
    assert queue.discard(0) is None    # nothing outstanding any more
    assert len(queue) == 2
    assert 0 not in queue
    # the discarded entry is invisible to every consumer
    assert queue.earliest_finish() == pytest.approx(2.0)
    assert [d.worker_id for d in queue.pop_first(5)] == [1, 2]


def test_queue_discard_then_readd_uses_fresh_entry():
    queue = DispatchQueue()
    queue.add(_dispatch(0, 5.0))
    queue.discard(0)
    queue.add(_dispatch(0, 1.0))       # rejoin, earlier finish
    assert queue.earliest_finish() == pytest.approx(1.0)
    arrivals = queue.pop_until(1.5)
    assert [d.worker_id for d in arrivals] == [0]
    assert arrivals[0].finish_time == pytest.approx(1.0)
    assert len(queue) == 0


def test_queue_pop_until_ignores_discarded():
    queue = DispatchQueue()
    queue.add(_dispatch(0, 1.0))
    queue.add(_dispatch(1, 1.5))
    queue.discard(1)
    assert [d.worker_id for d in queue.pop_until(2.0)] == [0]


# ----------------------------------------------------------------------
# strategy register/retire
# ----------------------------------------------------------------------
def _fedmp(worker_ids, rng):
    config = FLConfig(strategy="fedmp", local_iterations=2)
    return make_strategy("fedmp", worker_ids, config, rng=rng)


def test_register_known_worker_is_a_no_op(rng):
    strategy = _fedmp([0, 1, 2], rng)
    agents = dict(strategy.agents)
    state = strategy.rng.bit_generator.state
    strategy.register_worker(1)
    assert strategy.agents == agents
    # critically: no RNG was consumed, so a reconnect never shifts the
    # deterministic stream positions of a running service
    assert strategy.rng.bit_generator.state == state


def test_register_new_worker_mints_agent(rng):
    strategy = _fedmp([0, 1], rng)
    strategy.register_worker(5)
    assert 5 in strategy.worker_ids
    assert 5 in strategy.agents


def test_retire_parks_agent_for_rejoin(rng):
    strategy = _fedmp([0, 1, 2], rng)
    agent = strategy.agents[2]
    strategy.retire_worker(2)
    assert 2 not in strategy.worker_ids
    strategy.register_worker(2)
    # the parked agent -- its learned statistics -- is reused verbatim
    assert strategy.agents[2] is agent
    assert 2 in strategy.worker_ids


def test_retire_with_pending_play_abandons_it(rng):
    strategy = _fedmp([0, 1, 2], rng)
    strategy.select_ratios(0)
    strategy.retire_worker(2)
    # worker 2's agent must be selectable again after a rejoin
    strategy.register_worker(2)
    strategy.select_ratios(1, worker_ids=[2])


# ----------------------------------------------------------------------
# churn x client sampling determinism
# ----------------------------------------------------------------------
def test_churn_with_client_sampling_is_deterministic(task):
    devices = make_scenario_devices("medium", np.random.default_rng(7))

    def run():
        config = FLConfig(
            strategy="fedmp", max_rounds=4, local_iterations=2,
            batch_size=8, lr=0.05, eval_every=2, seed=11,
            churn_leave_prob=0.3, churn_rejoin_after=1,
            clients_per_round=4,
        )
        return run_federated_training(task, devices, config)

    first, second = run(), run()
    assert (normalised_history_bytes(first)
            == normalised_history_bytes(second))
    # the sampling cap really bit: nobody ever exceeds it
    assert all(len(record.completion_times) <= 4
               for record in first.rounds)
