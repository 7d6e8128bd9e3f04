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
import select
import socket
import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import make_synthetic_mnist
from repro.fl.checkpoint import CheckpointError
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.hooks import RoundHook
from repro.fl.runner import run_federated_training
from repro.fl.schedulers import make_scheduler
from repro.fl.tasks import ClassificationTask
from repro.runtime import pool
from repro.runtime.codec import WireFormatError
from repro.runtime.pool import InFlight
from repro.runtime.sockets import SocketTransport, send_message
from repro.runtime.transport import RetryPolicy, WorkerCrashError
from repro.serve import (
    GONE,
    PROTOCOL_VERSION,
    FedMPService,
    ServiceClient,
    ServiceError,
)
from repro.simulation.cluster import make_scenario_devices
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import Tracer
from repro.verify.differential import (
    StateCaptureHook,
    normalised_history_bytes,
    ulp_distance,
)
from tests.support.sockets import next_message
from tests.support.telemetry import ListSink


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

    def kill_a_held_poll_first(flights):
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
        return gather(flights)

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
    """Code-execution pickles, garbage and an over-cap frame size --
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
                send_message(sock, ("register", 1, PROTOCOL_VERSION,
                                    register_as))
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
    assert sum("bad magic" in reason for reason in reasons) == 2
    assert any("cap" in reason for reason in reasons)
    # only the registered attacker shows up in the roster's ledger
    assert service.counters["lost"] == 1
    assert service.roster[3].state == GONE


@pytest.mark.parametrize("kind", ["reduce_bomb", "garbage", "over_cap"])
def test_hostile_service_replies_are_typed_errors_in_the_client(tmp_path,
                                                                kind):
    """An impersonated service answers ``register`` with hostile bytes:
    the client raises a WireFormatError (not retried, although it would
    redial a lost service) and runs nothing.  A protocol-4 client
    unpickled the ``reduce_bomb`` spec and ran it."""
    from tests.test_runtime.test_sockets import hostile_frames, recv_message

    sentinel = tmp_path / "pwned"
    wire = hostile_frames(sentinel)[kind]
    listener = socket.create_server(("127.0.0.1", 0))
    asked = []

    def impersonate():
        conn, _ = listener.accept()
        with conn:
            asked.append(recv_message(conn)[0])
            conn.sendall(wire)
            conn.recv(1)             # until the client hangs up

    thread = threading.Thread(target=impersonate, daemon=True)
    thread.start()
    client = ServiceClient(listener.getsockname(), worker_id=0,
                           reconnect=True)
    try:
        with pytest.raises(WireFormatError):
            client.run()
    finally:
        listener.close()
        thread.join(timeout=30)
    assert asked == ["register"]
    assert not thread.is_alive()
    assert not sentinel.exists()


def test_a_task_without_a_registry_model_is_refused(devices):
    """A client rebuilds the model graph from the registry, so a task
    whose model the registry does not build cannot be served."""
    from repro.experiments.fleet import make_task

    with pytest.raises(ServiceError, match="registry model"):
        FedMPService(make_task(), devices, _config())


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
        service, transport, ("register", 1, PROTOCOL_VERSION, worker_id))
    assert reply[0] == "registered"
    assert reply[2].worker_id == worker_id


def _pumped_request(service, transport, message, tries=200):
    transport.send(message)
    for _ in range(tries):
        service.pump(0.02)
        reply = next_message(transport, timeout_s=0.02)
        if reply is not None:
            return reply
    raise AssertionError("no reply from the pumped service")


def test_protocol_mismatch_is_rejected(task, devices):
    service = FedMPService(task, devices, _config())
    transport = SocketTransport(service.address).connect()
    try:
        reply = _pumped_request(service, transport,
                                ("register", 1, 999, None))
        assert reply[0] == "err"
        assert "protocol" in reply[2]
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
        _register(service, first, 1)
        rejected = _pumped_request(
            service, second, ("register", 1, PROTOCOL_VERSION, 1))
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
    try:
        _register(service, transport, 1)
        transport.send(("pull_dispatch", 7, 1, HOLD_S))
        _pump_until(service, lambda: 1 in service._held)
        # nothing queued: no reply, only the park
        assert next_message(transport, timeout_s=0.01) is None
        assert len(service._held) == 1
        # queueing answers it -- no second request, no pump -- under
        # the poll's own seq
        service.link._queue(1, ("dispatch", 5, b"frame"))
        assert next_message(transport, timeout_s=30) == (
            "dispatch", 7, 5, b"frame")
        assert 1 not in service._held
    finally:
        transport.close()
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
                               ("leave", 3, 1)) == ("bye", 3)
        _register(service, second, 1)
        service.link._queue(1, ("dispatch", 5, b"frame"))
        reply = _pumped_request(service, second,
                                ("pull_dispatch", 2, 1, HOLD_S))
        assert reply == ("dispatch", 2, 5, b"frame")
        service.pump(HOLD_S)
        assert next_message(first, timeout_s=0.01) is None
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
    """A run checkpointing every round needs nothing from its clients
    (every stream position is the service's own), so it neither
    diverges nor falls back to waiting holds out: idle replies do not
    grow with the rounds."""
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
    assert polls("capture") == 0
    assert polls("drain") == 2
    # at the parent commit: ~1.8 idle replies per client per round
    assert polls("idle") < rounds
    assert metrics.gauge("held_polls").value is not None


def test_gather_times_a_worker_from_its_last_hand_over(task, devices):
    """A flight re-queued for a reconnected worker is timed from the
    hand-over that was answered, not from when the gather began.

    Every stamp compared is ordered by a happens-before edge: the
    peer's ``polled`` precedes its second poll, hence the answered
    hand-over; the push that ends the service's timing precedes
    ``gather`` returning, hence ``end``; and ``start`` precedes the
    first hand-over, hence ``polled``."""
    service = FedMPService(task, devices, _config())
    stamps = {}

    def peer():
        seq = iter(range(1, 1000))
        first = SocketTransport(service.address).connect()
        first.request(("register", next(seq), PROTOCOL_VERSION, 1))
        _poll_until_dispatch(first, seq, 1)
        first.close()               # handed over once, never answered
        second = SocketTransport(service.address).connect()
        while True:
            try:                    # until the service has seen the EOF
                second.request(("register", next(seq), PROTOCOL_VERSION,
                                1))
                break
            except Exception:
                time.sleep(0.01)
        stamps["polled"] = time.perf_counter()
        reply = _poll_until_dispatch(second, seq, 1)
        second.request(("push_contribution", next(seq), 1, reply[2],
                        b"reply"))
        second.close()

    thread = threading.Thread(target=peer, daemon=True)
    thread.start()
    try:
        _pump_until(service, lambda: 1 in service._held)
        flight = InFlight(1, b"frame")
        start = time.perf_counter()
        completion = service.link.gather([flight])
        end = time.perf_counter()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert flight.reply == b"reply"
        assert service.counters["reconnect"] == 1
        assert completion[1] <= end - stamps["polled"] < end - start
    finally:
        service.shutdown()
        service.engine.close()


def test_a_leaver_fails_the_gather_at_once_however_busy_the_fleet(
        task, devices):
    """ROADMAP item 17: worker 0 leaves with its flight queued while
    worker 1 keeps polling, so no backoff interval is ever empty.  The
    gather fails fast as a crash; it used to wait out the whole
    wall-clock budget."""
    service = FedMPService(task, devices, _config(),
                           retry=RetryPolicy(timeout_s=20.0))
    leaver = SocketTransport(service.address).connect()
    poller = SocketTransport(service.address).connect()

    def keep_polling():
        seq = iter(range(2, 100000))
        while True:   # each held poll expires into idle within 0.2 s
            reply = poller.request(("pull_dispatch", next(seq), 1, HOLD_S))
            if reply[0] == "drain":
                poller.request(("leave", next(seq), 1))
                return
            assert reply[0] == "idle"

    thread = threading.Thread(target=keep_polling, daemon=True)
    try:
        _register(service, leaver, 0)
        _register(service, poller, 1)
        thread.start()
        # read by the gather's first pump, after it queued the flight
        leaver.send(("leave", 2, 0))
        start = time.perf_counter()
        with pytest.raises(WorkerCrashError, match="left"):
            service.link.gather([InFlight(0, b"frame")])
        assert time.perf_counter() - start < 5.0
    finally:
        service.shutdown()
        thread.join(timeout=30)
        leaver.close()
        poller.close()
        service.engine.close()
    assert not thread.is_alive()


def test_a_leave_sent_between_rounds_keeps_the_leaver_out_of_the_next(
        task, devices):
    """A ``leave`` that reached the service after one round's gather is
    read before the next round's live roster is fixed, so the leaver is
    never handed a flight it cannot finish (ROADMAP item 17's race)."""
    service = FedMPService(task, devices, _config())
    leaver = SocketTransport(service.address).connect()
    stayer = SocketTransport(service.address).connect()
    try:
        _register(service, leaver, 0)
        _register(service, stayer, 1)
        leaver.send(("leave", 2, 0))
        # in the service's socket, not yet read by any pump
        assert select.select([service._conn_by_worker[0].sock], [], [],
                             5.0)[0]
        assert service._membership(1) == [1]
    finally:
        leaver.close()
        stayer.close()
        service.shutdown()
        service.engine.close()


class _VanishingClient(ServiceClient):
    """Dies once after ``leave_after`` dispatches without a ``leave``
    (the service sees EOF: a lost worker), then redials its slot."""

    def _leave(self) -> None:
        if self.leave_after is None:   # the drain at the end
            return super()._leave()
        self.leave_after = None
        self._close()
        raise ConnectionError("vanished")


def test_lost_worker_resumes_from_its_true_stream_position(task, devices,
                                                            tmp_path):
    """Worker 2 is lost after round 1, sits out round 2 and rejoins for
    round 3.  Its stream position lives in the service (committed from
    its last collected contribution), so the checkpoint written while
    it was gone resumes to the uninterrupted run's history bytes."""
    script = {0: [0, 1, 2], 2: [0, 1], 3: [0, 1, 2]}
    config = _config(max_rounds=5, checkpoint_dir=str(tmp_path),
                     checkpoint_every=1)
    reference, _ = _scripted_reference(
        task, devices, dataclasses.replace(config, checkpoint_dir=None),
        script)
    expected = normalised_history_bytes(reference)

    service = FedMPService(task, devices, config, roster_script=script)
    clients = {wid: ServiceClient(service.address, worker_id=wid)
               for wid in (0, 1)}
    clients[2] = _VanishingClient(service.address, worker_id=2,
                                  leave_after=2, reconnect=True)
    history, _, errors = _run_fleet(service, clients)
    assert errors == {}
    assert service.counters["lost"] == 1
    assert normalised_history_bytes(history) == expected

    resumed = FedMPService(task, devices, None, roster_script=script,
                           resume_from=str(tmp_path / "ckpt-000003.ckpt"))
    history, _, errors = _run_fleet(resumed, {
        wid: ServiceClient(resumed.address, worker_id=wid)
        for wid in (0, 1, 2)})
    assert errors == {}
    assert len(history.rounds) == 5
    assert normalised_history_bytes(history) == expected


def test_service_resume_rejects_a_conflicting_config(task, devices,
                                                     tmp_path):
    """The service resolves ``resume_from`` with the runner's rule: an
    explicit config must equal the checkpoint's (a ``CheckpointError``
    otherwise, before any port is bound), and a fresh service needs a
    config."""
    run_federated_training(task, devices, _config(
        max_rounds=1, checkpoint_dir=str(tmp_path)))
    bound = []
    real_socket = socket.socket

    def _socket(*args, **kwargs):
        bound.append(args)
        return real_socket(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(socket, "socket", _socket)
        with pytest.raises(CheckpointError, match="differs"):
            FedMPService(task, devices, _config(
                max_rounds=2, checkpoint_dir=str(tmp_path)),
                resume_from=str(tmp_path))
        with pytest.raises(ValueError, match="config is required"):
            FedMPService(task, devices, None)
    assert bound == []


class _InterruptAfterAggregate(RoundHook):
    """Requests the service's drain once round ``round_index`` has
    aggregated (what a SIGTERM arriving mid-round does)."""

    def __init__(self, round_index):
        self.round_index = round_index
        self.service = None

    def on_aggregate(self, round_index, contributions):
        if round_index == self.round_index:
            self.service.engine.request_interrupt()


def test_async_drain_while_waiting_for_a_joiner_leaves_a_resumable_checkpoint(
        task, devices, tmp_path):
    """Under async the next round's roster is asked from the re-dispatch
    *inside* the round in flight.  A drain caught waiting there (worker
    1 never registers) must not checkpoint: the round's update is in
    the model, its record is not yet in the history and its flights are
    not yet queued.  The last cadence checkpoint stays the resume point,
    and it runs to ``max_rounds``."""
    config = _config(async_m=1, checkpoint_dir=str(tmp_path),
                     checkpoint_every=1)
    hook = _InterruptAfterAggregate(1)
    service = FedMPService(task, devices, config, hooks=[hook],
                           roster_script={0: [0], 2: [0, 1]})
    hook.service = service
    history, _, errors = _run_fleet(
        service, {0: ServiceClient(service.address, worker_id=0)})
    assert errors == {}
    assert len(history.rounds) == 1

    resumed = run_federated_training(task, devices, None,
                                     resume_from=str(tmp_path))
    assert [record.round_index for record in resumed.rounds] == [0, 1, 2]
