"""Receiver-side sub-model derivation and wire-profile executor tests.

Covers the transport-economics guarantees: a dispatch frame is all a
receiver needs (it derives the module graph from its skeleton, the
plan, the state and the RNG record -- bitwise the sub-model the parent
extracted, Dropout included), a killed worker surfaces as a typed
error, and the negotiated sparse profiles run end-to-end through the
engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.experiments import fleet
from repro.experiments.setups import make_bench_task
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.models import build_model
from repro.runtime.codec import (
    DispatchPayload,
    TrainHyper,
    decode_contribution,
    decode_control,
    decode_dispatch,
    encode_contribution,
    encode_control,
    encode_dispatch,
)
from repro.runtime.executor import RemoteExecutor
from repro.runtime.pool import (
    ProcessPool,
    WorkerSpec,
    derive_submodel,
    handle_train,
    train_dispatch,
)
from repro.runtime.transport import WorkerCrashError
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry


@pytest.fixture(scope="module")
def mnist():
    return make_synthetic_mnist(train_per_class=12, test_per_class=4,
                                rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def devices():
    return make_scenario_devices({"A": 2, "B": 2}, np.random.default_rng(7))


def _config(**overrides) -> FLConfig:
    base = dict(strategy="fixed", strategy_kwargs={"ratio": 0.3},
                max_rounds=2, local_iterations=1, batch_size=8, lr=0.05,
                eval_every=10_000, seed=11)
    base.update(overrides)
    return FLConfig(**base)


def _specs(engine):
    """Every worker's spec, in fleet order (builds no worker)."""
    return [engine.workers.spec(wid) for wid in engine.worker_ids]


def _counter_sum(metrics: MetricsRegistry, name: str, **labels) -> float:
    return sum(
        counter.value for counter in metrics.counters
        if counter.name == name and all(
            str(counter.labels.get(key)) == str(value)
            for key, value in labels.items()
        )
    )


def _requests(engine, config, ratio):
    dispatches = engine.dispatch_many(
        {worker_id: ratio for worker_id in engine.worker_ids},
        0.0, round_index=0,
    ).values()
    hyper = TrainHyper(lr=config.lr, momentum=config.momentum,
                       weight_decay=config.weight_decay,
                       prox_mu=0.0, clip_norm=config.clip_norm)
    return [
        DispatchPayload(worker_id=d.worker_id, tau=d.tau, hyper=hyper,
                        plan=d.plan, state=d.dispatched_state,
                        module_rngs=d.cohort.template.rng_states())
        for d in dispatches
    ]


# ----------------------------------------------------------------------
# receiver-side derivation
# ----------------------------------------------------------------------
TASKS = {
    **{key: make_bench_task(key).make_task
       for key in ("cnn", "alexnet", "vgg19", "resnet50", "lstm")},
    # the fleet MLP is in no registry: only task.build_model knows it
    "fleet_mlp": fleet.make_task,
}


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.6])
@pytest.mark.parametrize("family", sorted(TASKS))
def test_receiver_derived_submodel_trains_bitwise(family, ratio):
    """From (skeleton, dispatch frame) alone the receiver rebuilds the
    sub-model the parent extracted: same parameter names and shapes,
    and -- after local training on the same batch stream -- the same
    state to the last bit, Dropout masks included.  A served client's
    skeleton and worker are what it rebuilds from the ``registered``
    reply's model and worker records."""
    task = TASKS[family]()
    model = task.build_model(np.random.default_rng(5))
    plan = task.build_plan(model, ratio)
    extracted = task.extract(model, plan, np.random.default_rng(6))
    rngs = extracted.rng_states()
    assert bool(rngs) == (family in ("alexnet", "vgg19"))

    shard = task.partition(2, np.random.default_rng(8))[0]
    device = make_scenario_devices({"A": 1}, np.random.default_rng(3))[0]
    spec = WorkerSpec(
        worker_id=0, seed=21, shard_inputs=shard[0],
        shard_targets=shard[1], batch_size=4, device=device,
        jitter_sigma=0.05, num_samples=int(shard[0].shape[0]),
        iterator_kind=task.iterator_kind,
    )
    if task.registry_model is None:   # never served: a pool child's
        skeleton, wire_spec = task.build_model(np.random.default_rng(0)), spec
    else:
        _, _, wire_spec, (name, kwargs) = decode_control(b"".join(
            encode_control(("registered", 1, spec, task.registry_model))))
        skeleton = build_model(name, rng=np.random.default_rng(0), **kwargs)
    frame = encode_dispatch(0, plan, extracted.state_dict(), tau=3,
                            hyper=TrainHyper(lr=0.05),
                            module_rngs=rngs)
    derived = derive_submodel(skeleton, decode_dispatch(frame))
    assert type(derived) is type(extracted)
    assert ([(name, value.shape) for name, value
             in derived.named_parameters()]
            == [(name, value.shape) for name, value
                in extracted.named_parameters()])
    assert derived.rng_states() == rngs

    losses = [
        worker.build().local_train(submodel, tau=3, lr=0.05, momentum=0.9)
        for worker, submodel in ((spec, extracted), (wire_spec, derived))
    ]
    assert losses[0] == losses[1]
    trained, expected = derived.state_dict(), extracted.state_dict()
    assert trained.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(trained[key], value, err_msg=key)


def test_skeleton_ships_structure_not_weights(mnist, devices):
    """A client's skeleton crosses the wire as a model record -- the
    registry name and builder kwargs, a sliver of the model it
    describes -- and rebuilds the task model's graph: registration
    cost, not dispatch cost."""
    task = ClassificationTask(mnist, "cnn")
    engine = Engine(task, devices, _config())
    try:
        spec = engine.workers.spec(0)
    finally:
        engine.close()
    head, tail = encode_control(("registered", 1, spec,
                                 task.registry_model))
    model = task.build_model(np.random.default_rng(0))
    shard_bytes = spec.shard_inputs.nbytes + spec.shard_targets.nbytes
    assert tail == b""
    assert len(head) - shard_bytes < 0.01 * 4 * model.num_parameters()
    _, _, _, (name, kwargs) = decode_control(head)
    rebuilt = build_model(name, rng=np.random.default_rng(1), **kwargs)
    assert ([(key, value.shape) for key, value in rebuilt.named_parameters()]
            == [(key, value.shape) for key, value in model.named_parameters()])


def test_no_module_graph_on_the_wire(mnist, devices):
    """Only ``dispatch`` and ``contribution`` bytes are ever charged:
    the template channel is gone, counter and all."""
    telemetry = Telemetry(metrics=MetricsRegistry())
    task = ClassificationTask(mnist, "cnn")
    config = _config(executor="process", num_procs=2)
    engine = Engine(task, devices, config, telemetry=telemetry)
    try:
        make_scheduler(config).run(engine)
        assert len(engine.executor.link.members) == 2
        kinds = {
            counter.labels.get("kind")
            for counter in telemetry.metrics.counters
            if counter.name == "wire_bytes_total"
        }
        assert kinds == {"dispatch", "contribution"}
    finally:
        engine.close()


def test_killed_worker_raises_worker_crash_error(mnist, devices):
    task = ClassificationTask(mnist, "cnn")
    config = _config()
    engine = Engine(task, devices, config)
    pool = ProcessPool(_specs(engine), num_procs=2,
                       skeleton=engine.model)
    executor = RemoteExecutor(pool)
    try:
        executor.run(_requests(engine, config, 0.3), round_index=0)
        for member in pool.members:
            member.proc.kill()
            member.proc.join(timeout=5.0)
        with pytest.raises(WorkerCrashError):
            executor.run(_requests(engine, config, 0.3), round_index=1)
    finally:
        executor.close()
        engine.close()


def test_remote_executor_validates_wire_profile(mnist, devices):
    class _NoLink:
        name = "none"

    with pytest.raises(ValueError, match="wire_profile"):
        RemoteExecutor(_NoLink(), wire_profile="dense")


# ----------------------------------------------------------------------
# negotiated wire profiles end-to-end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile", ["sparse", "sparse+quantized"])
def test_sparse_profiles_run_through_the_engine(mnist, devices, profile):
    telemetry = Telemetry(metrics=MetricsRegistry())
    task = ClassificationTask(mnist, "cnn")
    config = _config(executor="process", num_procs=2,
                     wire_profile=profile)
    engine = Engine(task, devices, config, telemetry=telemetry)
    try:
        assert engine.executor.wire_profile == profile
        history = make_scheduler(config).run(engine)
        assert len(history.rounds) == config.max_rounds
        assert all(np.isfinite(record.train_loss)
                   for record in history.rounds)
        # the contribution leg must genuinely shrink: dispatches ship
        # the same states dense, so sparse replies (keep 0.25) must
        # come in well under the dispatch volume
        contribution = _counter_sum(telemetry.metrics,
                                    "wire_bytes_total",
                                    kind="contribution")
        dispatch = _counter_sum(telemetry.metrics, "wire_bytes_total",
                                kind="dispatch")
        assert 0 < contribution < 0.75 * dispatch
    finally:
        engine.close()


def test_sparse_profile_matches_serial_at_full_keep():
    """keep_fraction=1.0 sparse ships every moved position exactly: for
    each bench model, a full-keep sparse reply overlays onto the
    dispatched state as the in-process flight's trained state, bit for
    bit."""
    for family in ("cnn", "alexnet", "vgg19", "resnet50", "lstm"):
        task, skeleton, spec, flight = _member_flight(family, tau=1)
        trained = train_dispatch(spec.build(), skeleton, flight).state
        frame = encode_contribution(0, trained, train_loss=0.0,
                                    wall_time_s=0.0, profile="sparse",
                                    base=flight.state, keep_fraction=1.0)
        dense = decode_contribution(
            frame, expect_profile="sparse").materialise(flight.state)
        assert dense.keys() == trained.keys()
        for key, value in trained.items():
            assert dense[key].dtype == value.dtype
            np.testing.assert_array_equal(dense[key], value,
                                          err_msg=f"{family} {key}")


# ----------------------------------------------------------------------
# one member flight on every plane
# ----------------------------------------------------------------------
def _member_flight(family, tau=3, ratio=0.3):
    """(task, skeleton, worker spec, member flight) for one bench model:
    the flight carries the extracted sub-model's state and RNG record,
    as a cohort's member flights do, and no stream record."""
    task = TASKS[family]()
    skeleton = task.build_model(np.random.default_rng(5))
    plan = task.build_plan(skeleton, ratio)
    extracted = task.extract(skeleton, plan, np.random.default_rng(6))
    shard = task.partition(2, np.random.default_rng(8))[0]
    device = make_scenario_devices({"A": 1}, np.random.default_rng(3))[0]
    spec = WorkerSpec(
        worker_id=0, seed=21, shard_inputs=shard[0],
        shard_targets=shard[1], batch_size=4, device=device,
        jitter_sigma=0.05, num_samples=int(shard[0].shape[0]),
        iterator_kind=task.iterator_kind,
    )
    flight = DispatchPayload(
        worker_id=0, tau=tau, hyper=TrainHyper(lr=0.05, momentum=0.9),
        plan=plan, state=extracted.state_dict(),
        module_rngs=extracted.rng_states(),
    )
    return task, skeleton, spec, flight


@pytest.mark.parametrize("family", ["cnn", "alexnet"])
def test_in_process_flight_equals_the_receivers_reply(family):
    """The in-process plane trains a flight on the parent's own worker;
    a receiver decodes the same flight's frame (stream record included),
    trains it through the same body and replies.  Same state, loss and
    advanced stream, bit for bit -- Dropout masks included."""
    _, skeleton, spec, flight = _member_flight(family)
    worker = spec.build()
    frame = encode_dispatch(0, flight.plan, flight.state, tau=flight.tau,
                            hyper=flight.hyper,
                            module_rngs=flight.module_rngs,
                            stream=worker.stream())
    local = train_dispatch(worker, skeleton, flight)
    reply = decode_contribution(
        handle_train({0: spec.build()}, skeleton, frame))

    assert local.stream is None   # the parent's worker advanced in place
    assert (reply.worker_id, reply.num_samples, reply.train_loss) \
        == (local.worker_id, local.num_samples, local.train_loss)
    assert reply.state.keys() == local.state.keys()
    for key, value in local.state.items():
        np.testing.assert_array_equal(reply.state[key], value, err_msg=key)
    advanced = worker.stream()
    assert reply.stream.rng == advanced.rng
    assert reply.stream.cursor == advanced.cursor
    assert (reply.stream.order is None) == (advanced.order is None)
    if advanced.order is not None:
        np.testing.assert_array_equal(reply.stream.order, advanced.order)
