"""Runner behaviour details beyond the main integration paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.runner import run_federated_training
from repro.fl.tasks import ClassificationTask
from repro.simulation.cluster import make_scenario_devices


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=20, test_per_class=5,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices("medium", np.random.default_rng(7))


def test_eval_every_skips_rounds(task, devices):
    config = FLConfig(strategy="synfl", max_rounds=4, local_iterations=1,
                      batch_size=8, eval_every=3, seed=1)
    history = run_federated_training(task, devices, config)
    metrics = [r.metric for r in history.rounds]
    assert metrics[0] is None
    assert metrics[1] is None
    assert metrics[2] is not None  # round index 2 -> (2+1) % 3 == 0
    assert metrics[3] is not None  # forced on the last round


def test_overhead_recorded_every_round(task, devices):
    config = FLConfig(strategy="fedmp", max_rounds=3, local_iterations=1,
                      batch_size=8, seed=1)
    history = run_federated_training(task, devices, config)
    assert all(r.overhead_s > 0 for r in history.rounds)


def test_round_ratios_recorded(task, devices):
    config = FLConfig(strategy="fedmp", max_rounds=3, local_iterations=1,
                      batch_size=8, seed=1,
                      strategy_kwargs={"warmup_rounds": 1})
    history = run_federated_training(task, devices, config)
    assert all(v == 0.0 for v in history.rounds[0].ratios.values())
    assert len(history.rounds[1].ratios) == len(devices)


def test_completion_times_reflect_device_speeds(task):
    """Cluster-C devices must post longer completion times than
    cluster-A devices in the same round."""
    rng = np.random.default_rng(3)
    from repro.simulation.cluster import make_scenario_devices as make

    devices = make({"A": 3, "C": 3}, rng)
    config = FLConfig(strategy="synfl", max_rounds=1, local_iterations=2,
                      batch_size=8, seed=1, jitter_sigma=0.0)
    history = run_federated_training(task, devices, config)
    times = history.rounds[0].completion_times
    a_ids = [d.device_id for d in devices if d.cluster == "A"]
    c_ids = [d.device_id for d in devices if d.cluster == "C"]
    mean_a = np.mean([times[i] for i in a_ids])
    mean_c = np.mean([times[i] for i in c_ids])
    assert mean_c > mean_a


def test_fedmp_round_times_shorter_after_warmup(task, devices):
    """Once pruning kicks in, FedMP's rounds get cheaper than its own
    unpruned warm-up round."""
    config = FLConfig(strategy="fedmp", max_rounds=5, local_iterations=2,
                      batch_size=8, seed=2, jitter_sigma=0.0,
                      strategy_kwargs={"warmup_rounds": 1,
                                       "max_ratio": 0.7})
    history = run_federated_training(task, devices, config)
    warmup_time = history.rounds[0].round_time_s
    later = [r.round_time_s for r in history.rounds[1:]]
    assert min(later) < warmup_time
