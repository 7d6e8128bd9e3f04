"""The four benchmark workloads and how their inputs come from a seed.

Each workload is a closed-loop batch run of a fixed size: the round
count is a pure function of ``--seconds`` (never of measured speed), so
the same seed and the same ``--seconds`` always give the same inputs
and the same result.  The program under test sees only the generated
inputs -- a task, a device fleet and an ``FLConfig``.

Sizing: the full-size round counts target about 30 s per timed run on
the 2-CPU reference host.  The benchmark contract's total time cap
forces shorter runs, so every workload's timed round count is scaled by
the one constant ``seconds / FULL_SECONDS`` and never drops below its
floor (12 timed rounds for the CNN workloads, 100 for fleet and LSTM).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.synthetic import make_synthetic_mnist
from repro.data.text import make_synthetic_ptb
from repro.experiments import fleet
from repro.experiments.setups import make_bench_task
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask, LanguageModelTask
from repro.serve import FedMPService, ServiceClient
from repro.simulation.cluster import make_scenario_devices

#: rounds excluded from every steady-state figure (cold caches, pool
#: and client start-up, E-UCB's ratio-0 warm-up round)
WARMUP_ROUNDS = 2
#: the timed-run length the full-size round counts are sized for
FULL_SECONDS = 30.0
#: seconds a client thread may outlive the service's drain
CLIENT_JOIN_TIMEOUT_S = 15.0


class WorkloadError(RuntimeError):
    """The workload's own plumbing (a client thread) failed."""


@dataclass(frozen=True)
class Seeds:
    data: int
    devices: int
    config: int


def derive_seeds(seed: int) -> Seeds:
    """Independent data / device / config seeds from the one ``--seed``."""
    children = np.random.SeedSequence(seed).spawn(3)
    data, devices, config = (
        int(child.generate_state(1)[0]) for child in children
    )
    return Seeds(data=data, devices=devices, config=config % (2 ** 31))


@dataclass(frozen=True)
class Sizes:
    """Timed round counts (warm-up rounds come on top)."""

    full: int     # at FULL_SECONDS
    floor: int    # never fewer, however small --seconds
    traced: int   # the traced pass and its bare twin
    quick: int    # --quick smoke runs


class EngineSession:
    """A constructed engine, ready to be driven once."""

    service_counters: Optional[Dict[str, int]] = None

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def drive(self):
        return make_scheduler(self.engine.config).run(self.engine)

    def close(self) -> None:
        self.engine.close()


class ServiceSession:
    """A bound ``FedMPService`` plus the client threads that feed it."""

    def __init__(self, service: FedMPService, clients: int) -> None:
        self.service = service
        self.engine = service.engine
        self.clients = clients

    @property
    def service_counters(self) -> Dict[str, int]:
        return dict(self.service.counters)

    def drive(self):
        errors: List[BaseException] = []

        def client_main(client: ServiceClient) -> None:
            try:
                client.run()
            except Exception as exc:  # surfaced after the join below
                errors.append(exc)

        threads = [
            threading.Thread(
                target=client_main,
                args=(ServiceClient(self.service.address),),
                name=f"perf-client-{index}", daemon=True,
            )
            for index in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            # the service runs on this (the main) thread, so the harness
            # wrappers around the engine never see concurrent calls
            history = self.service.run()
        finally:
            for thread in threads:
                thread.join(timeout=CLIENT_JOIN_TIMEOUT_S)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        if stuck:
            raise WorkloadError(f"client thread(s) did not exit: {stuck}")
        if errors:
            raise WorkloadError(f"client thread failed: {errors[0]!r}")
        return history

    def close(self) -> None:
        self.service.shutdown(drain_timeout_s=0.0)
        self.engine.close()


class Workload:
    """One benchmark workload; subclasses fill in the inputs."""

    name = ""
    why = ""
    sizes = Sizes(0, 0, 0, 0)
    #: member train requests every round submits (= operations)
    members_per_round = 0
    #: eval metric whose first crossing is ``sim_time_to_target_s``;
    #: only a workload that evaluates every round can have one
    time_to_target: Optional[float] = None

    def timed_rounds(self, seconds: float) -> int:
        scaled = int(round(self.sizes.full * seconds / FULL_SECONDS))
        return max(self.sizes.floor, scaled)

    # -- inputs, all derived from the seed -----------------------------
    def make_task(self, data_seed: int):
        raise NotImplementedError

    def make_devices(self, device_seed: int) -> list:
        raise NotImplementedError

    def make_config(self, config_seed: int, rounds: int,
                    checkpoint_dir: Optional[str]) -> FLConfig:
        raise NotImplementedError

    # -- the program under test ----------------------------------------
    def construct(self, task, devices, config: FLConfig, hooks,
                  telemetry):
        return EngineSession(
            Engine(task, devices, config, hooks=hooks, telemetry=telemetry)
        )

    # -- output checks beyond "all rounds, finite losses" --------------
    def quality_checks(self, history, session) -> Dict[str, bool]:
        return {}


class _CnnWorkload(Workload):
    """CNN/MNIST bench task on the paper's 10 ``medium`` devices."""

    accuracy_target = 0.90

    def make_task(self, data_seed: int):
        dataset = make_synthetic_mnist(
            train_per_class=60, test_per_class=15,
            rng=np.random.default_rng(data_seed),
        )
        return ClassificationTask(dataset, "cnn")

    def make_devices(self, device_seed: int) -> list:
        return make_scenario_devices(
            "medium", np.random.default_rng(device_seed))


class CnnSyncSerial(_CnnWorkload):
    name = "cnn_sync_serial"
    why = ("paper default: nn conv kernels and fl.tasks.evaluate do almost "
           "all the work; the only workload evaluating every round")
    sizes = Sizes(full=14, floor=12, traced=4, quick=2)
    members_per_round = 10
    time_to_target = _CnnWorkload.accuracy_target

    def make_config(self, config_seed, rounds, checkpoint_dir):
        return make_bench_task("cnn").make_config(
            "fedmp", sync_scheme="r2sp", scheduler="sync",
            executor="serial", max_rounds=rounds, eval_every=1,
            target_metric=None, seed=config_seed,
            checkpoint_dir=checkpoint_dir, checkpoint_every=4,
        )

    def quality_checks(self, history, session):
        return {
            "reaches_0.90_accuracy":
                history.time_to_target(self.time_to_target) is not None,
        }


class CnnAsyncProcess(_CnnWorkload):
    name = "cnn_async_process"
    why = ("same nn work behind the wire: runtime codec/pool/transport/shm "
           "and the event-heap DispatchQueue carry the round")
    sizes = Sizes(full=38, floor=12, traced=8, quick=2)
    members_per_round = 5

    def make_config(self, config_seed, rounds, checkpoint_dir):
        return make_bench_task("cnn").make_config(
            "fedmp", sync_scheme="r2sp", scheduler="async", async_m=5,
            executor="process", num_procs=2, wire_profile="exact",
            max_rounds=rounds, eval_every=rounds, target_metric=None,
            seed=config_seed,
        )

    def quality_checks(self, history, session):
        accuracy = history.rounds[-1].metric
        return {
            "final_accuracy_0.90":
                accuracy is not None and accuracy >= self.accuracy_target,
        }


class FleetCohort(Workload):
    name = "fleet_cohort"
    why = ("engine build is O(fleet) and the round is nn.batched stacked "
           "training + cohort aggregation; conv, eval, codec idle: a "
           "kernel or eval optimisation must show no change here")
    sizes = Sizes(full=118, floor=100, traced=20, quick=4)
    members_per_round = fleet.CLIENTS_PER_ROUND

    def __init__(self, fleet_size: int = 100_000) -> None:
        self.fleet_size = fleet_size

    def make_task(self, data_seed: int):
        dataset = make_synthetic_mnist(
            train_per_class=8, test_per_class=2,
            rng=np.random.default_rng(data_seed),
        )
        return fleet.FleetTask(dataset, "cnn")

    def make_devices(self, device_seed: int) -> list:
        half = self.fleet_size // 2
        return make_scenario_devices(
            {"A": self.fleet_size - half, "B": half},
            np.random.default_rng(device_seed),
        )

    def make_config(self, config_seed, rounds, checkpoint_dir):
        return FLConfig(
            strategy="fedmp", strategy_kwargs={"scope": "cluster"},
            max_rounds=rounds, local_iterations=2, batch_size=8,
            eval_every=rounds, seed=config_seed, cohort_rounds="on",
            clients_per_round=fleet.CLIENTS_PER_ROUND,
        )

    def quality_checks(self, history, session):
        loss = history.rounds[-1].eval_loss
        return {
            "final_loss_below_ln10":
                loss is not None and loss < math.log(10.0),
        }


class LstmServeSparse(Workload):
    name = "lstm_serve_sparse"
    why = ("the executor/codec layer used differently: socket not pipe, "
           "pickled RNG-bearing sub-models, sparse+quantized replies, ISS "
           "pruning; the service plane is about half of each round")
    sizes = Sizes(full=498, floor=100, traced=60, quick=4)
    members_per_round = 2
    perplexity_target = 150.0
    clients = 2

    def make_task(self, data_seed: int):
        corpus = make_synthetic_ptb(
            vocab_size=300, train_tokens=30_000, valid_tokens=3_000,
            test_tokens=3_000, rng=np.random.default_rng(data_seed),
        )
        return LanguageModelTask(
            corpus, seq_len=12, lm_batch_size=8,
            model_kwargs={"embedding_dim": 24, "hidden_size": 48},
        )

    def make_devices(self, device_seed: int) -> list:
        return make_scenario_devices(
            {"A": 1, "B": 1}, np.random.default_rng(device_seed))

    def make_config(self, config_seed, rounds, checkpoint_dir):
        return make_bench_task("lstm").make_config(
            "fedmp", sync_scheme="r2sp", scheduler="sync",
            wire_profile="sparse+quantized", max_rounds=rounds,
            eval_every=rounds, target_metric=None, seed=config_seed,
        )

    def construct(self, task, devices, config, hooks, telemetry):
        service = FedMPService(
            task, devices, config, hooks=hooks, telemetry=telemetry,
            min_workers=self.clients,
        )
        return ServiceSession(service, clients=self.clients)

    def quality_checks(self, history, session):
        perplexity = history.rounds[-1].metric
        return {
            "final_perplexity_150": (
                perplexity is not None
                and perplexity <= self.perplexity_target),
            "serve_lost_0": session.service_counters["lost"] == 0,
        }


WORKLOADS: Tuple[Workload, ...] = (
    CnnSyncSerial(), FleetCohort(), CnnAsyncProcess(), LstmServeSparse(),
)


#: ``--quick`` only: a 10k fleet keeps the smoke path under 90 s
QUICK_FLEET_SIZE = 10_000


def get_workload(name: str, quick: bool = False) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            if quick and isinstance(workload, FleetCohort):
                return FleetCohort(fleet_size=QUICK_FLEET_SIZE)
            return workload
    raise KeyError(
        f"unknown workload {name!r}; available: "
        f"{[workload.name for workload in WORKLOADS]}"
    )
