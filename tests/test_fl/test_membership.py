"""Live-membership plumbing: strategy register/retire and churn x
client-sampling determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.runner import run_federated_training
from repro.fl.strategies import make_strategy
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices
from repro.verify.differential import normalised_history_bytes


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


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
