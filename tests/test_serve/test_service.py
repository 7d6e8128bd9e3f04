"""Parameter-server service mode, end to end over loopback sockets.

The service and its clients run as real TCP peers (threads here,
`repro serve` / `repro client` processes in ``repro verify --stages
service/``): registration, dispatch,
contribution push, graceful leaves, scripted churn, and the headline
parity guarantee -- a served run's history is byte-identical to a
serial in-process run over the same roster script, with final weights
at 0 ULP.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.runtime import pool
from repro.runtime.pool import InFlight
from repro.runtime.sockets import SocketTransport, encode_message
from repro.runtime.transport import RetryPolicy, WorkerCrashError
from repro.serve import (
    ACTIVE,
    GONE,
    PROTOCOL_VERSION,
    FedMPService,
    ServiceClient,
    ServiceError,
)
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import ListSink, Tracer
from repro.verify.differential import (
    StateCaptureHook,
    normalised_history_bytes,
    ulp_distance,
)


@pytest.fixture(scope="module")
def task():
    dataset = make_synthetic_mnist(train_per_class=16, test_per_class=4,
                                   rng=np.random.default_rng(0))
    return ClassificationTask(dataset, "cnn")


@pytest.fixture
def devices():
    return make_scenario_devices({"A": 2, "B": 2},
                                 np.random.default_rng(7))


def _config(**overrides) -> FLConfig:
    base = dict(strategy="fedmp", max_rounds=3, local_iterations=2,
                batch_size=8, lr=0.05, eval_every=3, seed=11)
    base.update(overrides)
    return FLConfig(**base)


def _run_fleet(service, clients, timeout_s=180.0):
    """Service + clients in threads; returns (history, results, errors)."""
    box, results, errors = {}, {}, {}

    def serve():
        try:
            box["history"] = service.run()
        except BaseException as exc:  # surfaced by the caller
            box["error"] = exc

    def run_client(key, client):
        try:
            results[key] = client.run()
        except BaseException as exc:
            errors[key] = exc

    threads = [threading.Thread(target=serve, daemon=True)]
    threads += [
        threading.Thread(target=run_client, args=(key, client),
                         daemon=True)
        for key, client in clients.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
    alive = [t for t in threads if t.is_alive()]
    if alive:
        service.shutdown()
        raise AssertionError(f"{len(alive)} fleet thread(s) hung")
    if "error" in box:
        raise box["error"]
    return box.get("history"), results, errors


def _ulps(reference, candidate):
    assert reference.keys() == candidate.keys()
    return max(
        int(ulp_distance(reference[key], candidate[key]).max())
        for key in reference
    )


def _scripted_reference(task, devices, config, script):
    """Final state + history of the serial run over ``script``."""
    capture = StateCaptureHook()
    engine = Engine(task, devices, config, hooks=[capture])
    engine.membership_provider = lambda round_index: list(
        script[max(key for key in script if key <= round_index)]
    )
    try:
        return make_scheduler(config).run(engine), capture.states[-1]
    finally:
        engine.close()


# ----------------------------------------------------------------------
# end-to-end runs
# ----------------------------------------------------------------------
def test_loopback_run_completes(task, devices):
    service = FedMPService(task, devices, _config(), min_workers=4)
    clients = {
        wid: ServiceClient(service.address, worker_id=wid)
        for wid in range(4)
    }
    history, results, errors = _run_fleet(service, clients)
    assert errors == {}
    assert len(history.rounds) == 3
    assert results == {wid: 3 for wid in range(4)}
    assert service.counters["register"] == 4
    assert service.counters["leave"] == 4
    assert service.counters["lost"] == 0
    assert all(entry.state == GONE for entry in service.roster.values())


def test_scripted_churn_matches_serial_reference(task, devices):
    script = {0: [0, 1, 2], 2: [0, 1, 3]}
    config = _config(max_rounds=4)

    reference, reference_state = _scripted_reference(
        task, devices, config, script
    )

    served_capture = StateCaptureHook()
    service = FedMPService(task, devices, config,
                           hooks=[served_capture],
                           roster_script=script)
    clients = {
        # worker 2 is scripted out from round 2: it leaves after its
        # two dispatches; worker 3 registers at once and idles until
        # the script includes it
        wid: ServiceClient(service.address, worker_id=wid,
                           leave_after=2 if wid == 2 else None)
        for wid in (0, 1, 2, 3)
    }
    history, results, errors = _run_fleet(service, clients)
    assert errors == {}
    assert results == {0: 4, 1: 4, 2: 2, 3: 2}
    assert (normalised_history_bytes(history)
            == normalised_history_bytes(reference))
    assert _ulps(reference_state, served_capture.states[-1]) == 0


@pytest.mark.parametrize("lost_while", ["training", "held"])
def test_reissued_dispatch_trains_bitwise(task, devices, monkeypatch,
                                          lost_while):
    """A connection lost between pulling a dispatch and training it, or
    while its poll was held with the dispatch not yet queued: the
    redialled client is handed the very same frame -- all it needs, no
    template to rebuild -- and the run stays bitwise on the serial
    reference."""
    script = {0: [0, 1]}
    config = _config()
    reference, reference_state = _scripted_reference(
        task, devices, config, script
    )

    handle_train = pool.handle_train
    seen = []

    def drop_first_dispatch(workers, skeleton, frame):
        seen.append(frame)
        if len(seen) == 1 and lost_while == "training":
            raise ConnectionResetError("lost before training")
        return handle_train(workers, skeleton, frame)

    monkeypatch.setattr(pool, "handle_train", drop_first_dispatch)
    served_capture = StateCaptureHook()
    service = FedMPService(task, devices, config,
                           hooks=[served_capture], roster_script=script)
    clients = {
        wid: ServiceClient(service.address, worker_id=wid,
                           reconnect=True)
        for wid in (0, 1)
    }
    gather, send = service.link.gather, service._send
    dead, written = [], []

    def kill_a_held_poll_first(flights, clock):
        if not dead:
            # both polls parked, then worker 1's client end dies and the
            # service sees the EOF -- all before round 0 queues a frame
            # (a fresh park, so the EOF is read before the hold is up)
            _pump_until(service, lambda: (
                {0, 1} <= set(service._held)
                and service._held[1][2] - time.monotonic() > 0.1))
            dead.append(service._held[1][0])
            clients[1].transport._sock.shutdown(socket.SHUT_RDWR)
            _pump_until(service, lambda: 1 not in service._held)
            assert service.counters["lost"] == 1
        return gather(flights, clock)

    def recording_send(connection, message):
        written.append(connection)
        send(connection, message)

    if lost_while == "held":
        service.link.gather = kill_a_held_poll_first
        service._send = recording_send
    history, results, errors = _run_fleet(service, clients)
    assert errors == {}
    assert service.counters["lost"] == 1
    assert service.counters["reconnect"] == 1
    if lost_while == "training":
        # the re-issue is the same bytes, not a re-encode
        assert seen.count(seen[0]) == 2
    else:
        # the park died with its connection: nothing was popped for the
        # dead socket or written to it after its ``registered`` reply,
        # and every frame trained exactly once
        assert written.count(dead[0]) == 1
        assert len(set(seen)) == len(seen)
    assert (normalised_history_bytes(history)
            == normalised_history_bytes(reference))
    assert _ulps(reference_state, served_capture.states[-1]) == 0


def test_hostile_peers_are_dropped_and_the_run_completes(
        task, devices, tmp_path):
    """Code-execution pickles, garbage and an over-cap length prefix --
    from unregistered peers and from a registered worker -- each cost
    the sender its connection and nobody else anything."""
    from tests.test_runtime.test_sockets import hostile_frames

    sentinel = tmp_path / "pwned"
    frames = hostile_frames(sentinel)
    sink = ListSink()
    service = FedMPService(
        task, devices, _config(), roster_script={0: [0]},
        telemetry=Telemetry(tracer=Tracer(sink=sink)),
    )
    closed = {}

    def attack(kind, register_as=None):
        sock = socket.create_connection(service.address, timeout=30)
        try:
            if register_as is not None:
                sock.sendall(encode_message(
                    ("register", 1, {"protocol": PROTOCOL_VERSION,
                                     "worker_id": register_as})
                ))
                assert sock.recv(1 << 16)     # the registered reply
            sock.sendall(frames[kind])
            while sock.recv(1 << 16):
                pass
            closed[kind] = True                # EOF: the service hung up
        finally:
            sock.close()

    attackers = [
        threading.Thread(target=attack, args=("reduce_bomb", 3),
                         daemon=True),
        threading.Thread(target=attack, args=("garbage",), daemon=True),
        threading.Thread(target=attack, args=("over_cap",), daemon=True),
    ]
    for thread in attackers:
        thread.start()
    history, results, errors = _run_fleet(
        service, {0: ServiceClient(service.address, worker_id=0)}
    )
    for thread in attackers:
        thread.join(timeout=30)
    assert errors == {}
    assert results == {0: 3}
    assert len(history.rounds) == 3
    assert closed == {"reduce_bomb": True, "garbage": True,
                      "over_cap": True}
    assert not sentinel.exists()
    reasons = sorted(event["attrs"]["reason"]
                     for event in sink.events("peer_rejected"))
    assert len(reasons) == 3
    assert any("os.mkdir" in reason or "posix.mkdir" in reason
               for reason in reasons)
    assert any("cap" in reason for reason in reasons)
    # only the registered attacker shows up in the roster's ledger
    assert service.counters["lost"] == 1
    assert service.roster[3].state == GONE


def test_leaver_slot_can_be_reclaimed(task, devices):
    script = {0: [0, 1]}
    service = FedMPService(task, devices, _config(max_rounds=4),
                           roster_script=script)
    first = ServiceClient(service.address, worker_id=0, leave_after=2)
    steady = ServiceClient(service.address, worker_id=1)
    box = {}

    def serve():
        box["history"] = service.run()

    server = threading.Thread(target=serve, daemon=True)
    steady_thread = threading.Thread(target=steady.run, daemon=True)
    first_thread = threading.Thread(target=first.run, daemon=True)
    server.start()
    steady_thread.start()
    first_thread.start()
    first_thread.join(timeout=120)
    assert not first_thread.is_alive()
    # the scripted roster still wants worker 0: a replacement client
    # claims the vacated slot and the run finishes
    replacement = ServiceClient(service.address, worker_id=0)
    completed = replacement.run()
    server.join(timeout=120)
    steady_thread.join(timeout=120)
    assert not server.is_alive()
    assert len(box["history"].rounds) == 4
    assert completed == 2
    entry = service.roster[0]
    assert entry.registrations == 2
    assert service.counters["reconnect"] == 1


def test_registration_timeout_raises_service_error(task, devices):
    service = FedMPService(task, devices, _config(), min_workers=2,
                           registration_timeout_s=1.0)
    with pytest.raises(ServiceError, match="waiting for"):
        service.run()


def test_fleet_evaporating_fails_fast(task, devices):
    # both workers leave after two dispatches with three rounds still
    # owed; whichever way the leave races the round-start snapshot the
    # service must fail loudly (abandoned requests or a registration
    # timeout), never hang
    service = FedMPService(task, devices, _config(max_rounds=5),
                           min_workers=2,
                           registration_timeout_s=1.5)
    clients = {
        wid: ServiceClient(service.address, leave_after=2)
        for wid in (0, 1)
    }
    with pytest.raises((ServiceError, WorkerCrashError)):
        _run_fleet(service, clients)


# ----------------------------------------------------------------------
# protocol-level behaviour (service pumped from the test thread)
# ----------------------------------------------------------------------
def _pump_until(service, condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "the pumped service stalled"
        service.pump(0.02)


def _register(service, transport, worker_id):
    reply = _pumped_request(
        service, transport,
        ("register", 1, {"protocol": PROTOCOL_VERSION,
                         "worker_id": worker_id}),
    )
    assert reply[0] == "registered"


def _pumped_request(service, transport, message, tries=200):
    transport.send(message)
    for _ in range(tries):
        service.pump(0.02)
        reply = transport.next_message(timeout_s=0.02)
        if reply is not None:
            return reply
    raise AssertionError("no reply from the pumped service")


def test_protocol_mismatch_is_rejected(task, devices):
    service = FedMPService(task, devices, _config())
    transport = SocketTransport(service.address).connect()
    try:
        reply = _pumped_request(
            service, transport,
            ("register", 1, {"protocol": 999, "worker_id": None}),
        )
        assert reply[0] == "err"
        assert "protocol" in reply[2]
    finally:
        transport.close()
        service.shutdown()
        service.engine.close()


def test_status_reports_roster_and_counters(task, devices):
    service = FedMPService(task, devices, _config())
    transport = SocketTransport(service.address).connect()
    try:
        reply = _pumped_request(
            service, transport,
            ("register", 1, {"protocol": PROTOCOL_VERSION,
                             "worker_id": 2}),
        )
        assert reply[0] == "registered"
        assert reply[2]["worker_id"] == 2
        status = _pumped_request(service, transport, ("status", 2))
        assert status[0] == "status_ok"
        report = status[2]
        assert report["protocol"] == PROTOCOL_VERSION
        assert report["counters"]["register"] == 1
        assert report["roster"][2]["state"] == ACTIVE
        assert report["rounds_recorded"] == 0
    finally:
        transport.close()
        service.shutdown()
        service.engine.close()


def test_duplicate_registration_for_active_slot_is_rejected(task,
                                                            devices):
    service = FedMPService(task, devices, _config())
    first = SocketTransport(service.address).connect()
    second = SocketTransport(service.address).connect()
    try:
        reply = _pumped_request(
            service, first,
            ("register", 1, {"protocol": PROTOCOL_VERSION,
                             "worker_id": 1}),
        )
        assert reply[0] == "registered"
        rejected = _pumped_request(
            service, second,
            ("register", 1, {"protocol": PROTOCOL_VERSION,
                             "worker_id": 1}),
        )
        assert rejected[0] == "err"
        assert "already registered" in rejected[2]
    finally:
        first.close()
        second.close()
        service.shutdown()
        service.engine.close()


# ----------------------------------------------------------------------
# held polls
# ----------------------------------------------------------------------
HOLD_S = 0.8 * RetryPolicy().backoff(0)   # what a default client offers


def _poll_until_dispatch(transport, seq, worker_id):
    """Poll like a client does (blocking; the service is pumped by
    another thread) until a dispatch comes back."""
    while True:
        reply = transport.request(
            ("pull_dispatch", next(seq), worker_id, HOLD_S))
        if reply[0] == "dispatch":
            return reply
        assert reply[0] == "idle"


def test_held_poll_is_answered_the_moment_work_is_queued(task, devices):
    service = FedMPService(task, devices, _config())
    transport = SocketTransport(service.address).connect()
    observer = SocketTransport(service.address).connect()
    try:
        _register(service, transport, 1)
        transport.send(("pull_dispatch", 7, 1, HOLD_S))
        _pump_until(service, lambda: 1 in service._held)
        # nothing queued: no reply, and the park shows in `status`
        assert transport.next_message(timeout_s=0.01) is None
        status = _pumped_request(service, observer, ("status", 1))
        assert status[2]["held"] == 1
        # queueing answers it -- no second request, no pump -- under
        # the poll's own seq
        service.link._queue(1, ("dispatch", 5, b"frame"))
        assert transport.next_message(timeout_s=30) == (
            "dispatch", 7, 5, b"frame")
        assert 1 not in service._held
    finally:
        transport.close()
        observer.close()
        service.shutdown()
        service.engine.close()


def test_unanswered_hold_expires_into_idle_without_a_retry(task, devices):
    metrics = MetricsRegistry()
    service = FedMPService(task, devices, _config())
    transport = SocketTransport(service.address, metrics=metrics).connect()
    box = {}

    def poll(hold_s):
        start = time.monotonic()
        box["reply"] = transport.request(("pull_dispatch", 2, 1, hold_s))
        box["waited"] = time.monotonic() - start

    try:
        _register(service, transport, 1)
        # the client's own offer, then one far over the service's cap
        for offered in (HOLD_S, 3600.0):
            poller = threading.Thread(target=poll, args=(offered,),
                                      daemon=True)
            poller.start()
            _pump_until(service, lambda: not poller.is_alive())
            assert box["reply"] == ("idle", 2)
            assert box["waited"] >= HOLD_S
        assert metrics.counter("retries_total",
                               transport="socket").value == 0
        # garbage offers are refused, not parked
        for offered in (-1.0, float("nan")):
            reply = _pumped_request(service, transport,
                                    ("pull_dispatch", 3, 1, offered))
            assert reply[0] == "err" and "held" in reply[2]
        assert service._held == {}
    finally:
        transport.close()
        service.shutdown()
        service.engine.close()


def test_reregistered_worker_is_answered_on_its_new_connection(task,
                                                                devices):
    service = FedMPService(task, devices, _config())
    first = SocketTransport(service.address).connect()
    second = SocketTransport(service.address).connect()
    try:
        _register(service, first, 1)
        first.send(("pull_dispatch", 2, 1, HOLD_S))
        _pump_until(service, lambda: 1 in service._held)
        # the slot changes hands while the first connection's poll is
        # still parked
        assert _pumped_request(service, first,
                               ("leave", 3, 1, None)) == ("bye", 3)
        _register(service, second, 1)
        service.link._queue(1, ("dispatch", 5, b"frame"))
        reply = _pumped_request(service, second,
                                ("pull_dispatch", 2, 1, HOLD_S))
        assert reply == ("dispatch", 2, 5, b"frame")
        service.pump(HOLD_S)
        assert first.next_message(timeout_s=0.01) is None
    finally:
        first.close()
        second.close()
        service.shutdown()
        service.engine.close()


def test_shutdown_drains_held_polls_at_once(task, devices):
    metrics = MetricsRegistry()
    service = FedMPService(task, devices, _config(),
                           telemetry=Telemetry(metrics=metrics))
    clients = [ServiceClient(service.address, worker_id=wid)
               for wid in (0, 1)]
    threads = [threading.Thread(target=client.run, daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    _pump_until(service, lambda: len(service._held) == 2)
    idle = metrics.counter("polls_total", outcome="idle").value
    service.shutdown()
    for thread in threads:
        thread.join(timeout=30)
    service.engine.close()
    assert not any(thread.is_alive() for thread in threads)
    # both parked polls were told to drain by shutdown's first pump: no
    # hold had to run out first
    assert metrics.counter("polls_total", outcome="drain").value == 2
    assert metrics.counter("polls_total", outcome="idle").value == idle
    assert service.counters["leave"] == 2
    assert all(entry.state == GONE for entry in service.roster.values())


def test_checkpointing_run_wakes_held_polls_and_stays_bitwise(
        task, devices, tmp_path):
    """A capture marker answers a held poll like a dispatch does, so a
    run checkpointing every round neither diverges nor falls back to
    waiting holds out: idle replies do not grow with the rounds."""
    script = {0: [0, 1]}
    rounds = 6
    config = _config(max_rounds=rounds)
    reference, reference_state = _scripted_reference(
        task, devices, config, script
    )
    metrics = MetricsRegistry()
    served_capture = StateCaptureHook()
    service = FedMPService(
        task, devices,
        dataclasses.replace(config, checkpoint_dir=str(tmp_path),
                            checkpoint_every=1),
        hooks=[served_capture], roster_script=script,
        telemetry=Telemetry(metrics=metrics),
    )
    clients = {wid: ServiceClient(service.address, worker_id=wid)
               for wid in (0, 1)}
    history, results, errors = _run_fleet(service, clients)
    assert errors == {}
    assert (normalised_history_bytes(history)
            == normalised_history_bytes(reference))
    assert _ulps(reference_state, served_capture.states[-1]) == 0

    def polls(outcome):
        return metrics.counter("polls_total", outcome=outcome).value

    assert polls("dispatch") == 2 * rounds
    assert polls("capture") == 2 * rounds
    assert polls("drain") == 2
    # at the parent commit: ~1.8 idle replies per client per round
    assert polls("idle") < rounds
    assert metrics.gauge("held_polls").value is not None


def test_gather_times_a_worker_from_its_last_hand_over(task, devices):
    """A flight re-queued for a reconnected worker is timed from the
    hand-over that was answered, not from when the gather began."""
    service = FedMPService(task, devices, _config())
    stamps = {}

    def peer():
        seq = iter(range(1, 1000))
        register = {"protocol": PROTOCOL_VERSION, "worker_id": 1}
        first = SocketTransport(service.address).connect()
        first.request(("register", next(seq), register))
        _poll_until_dispatch(first, seq, 1)
        first.close()               # handed over once, never answered
        second = SocketTransport(service.address).connect()
        while True:
            try:                    # until the service has seen the EOF
                second.request(("register", next(seq), register))
                break
            except Exception:
                time.sleep(0.01)
        stamps["polled"] = time.perf_counter()
        reply = _poll_until_dispatch(second, seq, 1)
        second.request(("push_contribution", next(seq), 1, reply[2],
                        b"reply"))
        stamps["accepted"] = time.perf_counter()
        second.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        _pump_until(service, lambda: 1 in service._held)
        flight = InFlight(1, b"frame")
        clock = RetryPolicy().clock()
        completion = service.link.gather([flight], clock)
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert flight.reply == b"reply"
        assert service.counters["reconnect"] == 1
        assert (completion[1] <= stamps["accepted"] - stamps["polled"]
                < clock.elapsed())
    finally:
        service.shutdown()
        service.engine.close()
