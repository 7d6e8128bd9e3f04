"""Fleet-scale round workload (shared by ``perf/`` and the benchmarks).

A deliberately small shared-shard MLP task whose fleet size scales the
*engine* work (dispatch, pricing, training-loop overhead, aggregation)
rather than raw model flops.  Living inside the package --
``benchmarks/`` is not importable -- lets ``perf/``'s ``fleet_cohort``
workload and ``benchmarks/bench_telemetry_overhead.py`` run the exact
same task: ``clients_per_round`` sampled workers per round, bucketed
by (ratio, cluster) into cohorts, one shared sub-model per bucket,
local training vectorised across each cohort, per-cohort aggregation
partial sums.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.nn.layers import Flatten, Linear, ReLU
from repro.nn.module import Sequential
from repro.simulation.cluster import make_scenario_devices

__all__ = [
    "CLIENTS_PER_ROUND",
    "FleetTask",
    "make_task",
    "make_fleet",
    "measure",
]

CLIENTS_PER_ROUND = 256


def _build_mlp(num_classes=10, input_shape=(1, 28, 28), rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    channels, height, width = input_shape
    model = Sequential(
        ("flatten", Flatten()),
        ("fc1", Linear(channels * height * width, 64, rng=rng)),
        ("relu1", ReLU()),
        ("fc2", Linear(64, num_classes, rng=rng)),
    )
    model.input_shape = input_shape
    model.num_classes = num_classes
    model.name = "fleet_mlp"
    return model


class FleetTask(ClassificationTask):
    """Shared-shard MLP task: every worker trains the same small shard,
    so fleet size scales the *engine* work, not the dataset.  Its MLP is
    no registry model, so the task is never served."""

    registry_model = None

    def build_model(self, rng):
        return _build_mlp(self.dataset.num_classes,
                          self.dataset.input_shape, rng)

    def partition(self, num_workers, rng):
        shard = (self.dataset.train_x, self.dataset.train_y)
        return [shard] * num_workers


def make_task() -> FleetTask:
    dataset = make_synthetic_mnist(train_per_class=8, test_per_class=2,
                                   rng=np.random.default_rng(0))
    return FleetTask(dataset, "cnn")


def make_fleet(count: int):
    half = count // 2
    return make_scenario_devices({"A": count - half, "B": half},
                                 np.random.default_rng(5))


def measure(task: FleetTask, devices: List, rounds: int,
            telemetry=None) -> dict:
    """Run ``rounds`` sampled rounds and report throughput.

    ``telemetry`` is threaded into the engine when given (the overhead
    benchmark measures enabled-vs-disabled on this exact workload).
    """
    config = FLConfig(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                      max_rounds=rounds, local_iterations=2,
                      batch_size=8, eval_every=10_000, seed=7,
                      clients_per_round=CLIENTS_PER_ROUND)
    start = time.perf_counter()
    engine = Engine(task, devices, config, telemetry=telemetry)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    try:
        history = make_scheduler(config).run(engine)
    finally:
        engine.close()
    wall_s = time.perf_counter() - start
    return {
        "rounds": len(history.rounds),
        "members_trained_per_round": min(CLIENTS_PER_ROUND, len(devices)),
        "engine_build_s": round(build_s, 3),
        "wall_s_total": round(wall_s, 4),
        "rounds_per_s": round(len(history.rounds) / wall_s, 4),
    }
