"""The parameter-server service: a long-running daemon owning the engine.

:class:`FedMPService` binds a loopback/LAN listener, accepts live
worker registrations, and drives the ordinary round
:class:`~repro.fl.engine.Engine` + scheduler over them.  Training
itself runs in the *clients* (see :mod:`repro.serve.client`): the
engine's execution seam is the same
:class:`~repro.runtime.executor.RemoteExecutor` the process pool runs
under, built by the engine over a :class:`PullLink` that queues encoded
dispatches per worker and collects contribution frames as clients pull
and push them in the control messages of
:data:`repro.runtime.codec.CONTROL_OPS`.  A
``pull_dispatch`` that finds nothing queued is *held*: parked, and
answered the moment work is queued for that worker (``idle`` after the
hold, ``drain`` on shutdown) -- still the reply to a client's request.

Determinism carries over from the process executor by construction:
one executor encodes every dispatch and decodes every reply, each
dispatch carries the worker's stream record and each reply the
advanced one (committed to the engine's worker on collect), clients
run the exact :func:`repro.runtime.pool.handle_train` body, and
decode/aggregate order in the parent is submission order -- so a
loopback-socket run is bitwise identical to a serial run over the same
membership script (pinned by ``repro verify``'s service stage), and a
checkpoint never needs anything from a client.

The service is single-threaded: one ``selectors`` pump serves every
connection, driven from two places -- the link's gather (the
:meth:`~repro.runtime.transport.RetryClock.wait_until` loop every
remote reply is awaited in, the pool's and a client's included) and
the membership provider's wait.  There are no locks and no cross-thread
hand-offs.
"""

from __future__ import annotations

import heapq
import selectors
import signal
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fl.checkpoint import resolve_resume
from repro.fl.engine import Engine
from repro.fl.schedulers import make_scheduler
from repro.runtime.codec import WireFormatError
from repro.runtime.pool import InFlight
from repro.runtime.sockets import FrameBuffer, SocketClosedError, send_message
from repro.runtime.transport import RetryPolicy
from repro.serve.protocol import (
    ACTIVE,
    DRAINING,
    GONE,
    PROTOCOL_VERSION,
    RosterEntry,
)
from repro.telemetry.runtime import DISABLED_TELEMETRY, Telemetry

__all__ = [
    "ServiceError",
    "ServiceDrained",
    "PullLink",
    "FedMPService",
]


#: the longest a ``pull_dispatch`` is held, whatever the client offers
MAX_HOLD_S = 0.2


class ServiceError(RuntimeError):
    """A service-side protocol or lifecycle failure."""


class ServiceDrained(ServiceError):
    """The service was asked to drain before the run could proceed."""


@dataclass
class _Connection:
    """Per-socket read state on the service side."""

    sock: socket.socket
    frames: FrameBuffer = field(default_factory=FrameBuffer)
    worker_id: Optional[int] = None


class PullLink:
    """The service's link for :class:`~repro.runtime.executor.
    RemoteExecutor`: clients pull dispatch frames and push replies.

    Where the pool link writes to pipes, this one queues ``(tseq,
    frame)`` per worker and lets clients collect them through the
    service's request loop; ``gather`` pumps the service until every
    contribution frame is back.  A dispatch frame is self-sufficient
    (the client derives the sub-model itself and trains from the
    frame's stream record), so re-issuing one to a reconnected worker is
    re-queueing the same bytes, and it trains the same bits again.
    """

    name = "socket"
    #: cohorts per ``Executor.run_round`` gather: one, because a
    #: served fleet may be threads of this interpreter (loopback
    #: sessions), where a round-wide wave only adds GIL contention
    wave_cohorts: Optional[int] = 1

    def __init__(self, service: "FedMPService",
                 retry: Optional[RetryPolicy] = None) -> None:
        self.service = service
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = service.telemetry.metrics
        self._seq = 0
        #: worker id -> queued outbound items, drained by pull_dispatch
        self._outbox: Dict[int, deque] = {}
        #: the current round's in-flight table (empty between rounds)
        self._pending: Dict[int, InFlight] = {}
        #: dispatch seq -> when its frame was last written to a client
        self._handed: Dict[int, float] = {}
        #: the gather in progress: worker id -> hand-over to reply, s
        self._completion: Dict[int, float] = {}
        #: client-seconds from hand-over to reply, over every gather
        self.busy_s = 0.0

    @property
    def parallelism(self) -> int:
        return self.service._active_count()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _queue(self, worker_id: int, item: Tuple) -> None:
        self._outbox.setdefault(worker_id, deque()).append(item)
        self.service.answer_held(worker_id)

    # -- the executor-facing half --------------------------------------
    def gather(self, flights: List[InFlight]) -> Dict[int, float]:
        """Pump the service until every contribution frame is in.

        Waits in :meth:`~repro.runtime.transport.RetryClock.wait_until`:
        any inbound traffic counts as liveness (held polls expiring,
        heartbeats, one chunk of a large frame), so the attempt budget
        is for a *silent* fleet and the wall-clock budget bounds a
        wedged one.  A worker that reconnects gets its lost frames
        re-queued verbatim by :meth:`forget_worker` (each carries the
        stream record it trains from: a second delivery trains the same
        bits), so a lost connection waits (the client may redial).  A
        worker that *gracefully leaves* with work outstanding can never
        finish it -- that fails fast as
        :class:`~repro.runtime.transport.WorkerCrashError`, whatever
        traffic the rest of the fleet keeps up.
        """
        service = self.service
        self._pending = {self._next_seq(): flight for flight in flights}
        self._completion = completion = {}
        for tseq, flight in self._pending.items():
            self._queue(flight.worker_id, ("dispatch", tseq, flight.frame))

        def left() -> Optional[str]:
            gone = sorted({
                flight.worker_id for flight in flights
                if flight.reply is None
                and service.gone_reason(flight.worker_id) == "leave"
            })
            return (f"worker(s) {gone} left the service with training "
                    f"request(s) outstanding") if gone else None

        try:
            self.retry.clock().wait_until(
                lambda: all(flight.reply is not None for flight in flights),
                service.pump, left, self.metrics, self.name)
            return completion
        finally:
            self._pending = {}
            self._handed = {}

    def close(self) -> None:
        self.service.shutdown()

    # -- the service-facing half ---------------------------------------
    def next_for(self, worker_id: int) -> Optional[Tuple]:
        """Pop the next outbox item for a worker whose poll is being
        answered, if any.  A dispatch is stamped here, so the worker is
        timed from its hand-over, not from when the frame was queued."""
        queue = self._outbox.get(worker_id)
        if not queue:
            return None
        item = queue.popleft()
        if item[0] == "dispatch":
            self._handed[item[1]] = time.perf_counter()
        return item

    def deliver(self, tseq: int, worker_id: int, frame: bytes) -> None:
        """Accept one pushed contribution frame (first delivery wins)."""
        flight = self._pending.get(tseq)
        handed = self._handed.get(tseq)
        if flight is None or flight.worker_id != worker_id or handed is None:
            raise ServiceError(
                f"unexpected contribution seq {tseq} from worker "
                f"{worker_id}"
            )
        if flight.reply is None:
            flight.reply = frame
            self._completion[worker_id] = time.perf_counter() - handed
            self.busy_s += self._completion[worker_id]

    def forget_worker(self, worker_id: int) -> None:
        """Reset what the previous connection of a worker was owed.

        Called on every (re-)registration: anything handed to (or
        queued for) the previous connection is gone, so the worker's
        unanswered dispatch frames are re-queued, in their original
        order.
        """
        self._outbox.pop(worker_id, None)
        for tseq, flight in self._pending.items():
            if flight.worker_id == worker_id and flight.reply is None:
                self._queue(worker_id, ("dispatch", tseq, flight.frame))


class FedMPService:
    """A long-running FedMP parameter server on a TCP listener.

    Owns the engine, the scheduler, and the fleet roster.  Workers are
    remote :class:`~repro.serve.client.ServiceClient` processes that
    register over the socket protocol; the membership provider feeds
    the live (or scripted) roster into
    :meth:`~repro.fl.engine.Engine.present_workers`, so the ordinary
    schedulers drive rounds over whoever is actually connected.

    ``roster_script`` pins membership for differential verification: a
    ``{round: [worker ids]}`` dict (largest key <= round applies).
    The provider then *waits* until every scripted worker is
    registered and returns exactly the scripted list -- making the
    round sequence independent of client arrival timing, hence
    bit-comparable with a serial reference run driven by the same
    script.  Without a script, round 0 waits for ``min_workers`` and
    later rounds for at least one active worker.

    SIGTERM/SIGINT request a cooperative drain: the round in flight
    finishes, an interrupt checkpoint is written with the true next
    round (a queued rule's drain caught waiting for a roster keeps its
    last cadence checkpoint instead), connected clients are told to
    drain, and :meth:`run` returns the partial history.  Resuming that
    checkpoint (with ``resume_from``) continues byte-identically -- the
    checkpoint's ``service`` payload restores the roster's registration
    ledger, and every dispatch carries its worker's checkpointed stream
    position.
    """

    def __init__(self, task, devices, config=None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 telemetry: Optional[Telemetry] = None,
                 hooks=None,
                 checkpoint_meta: Optional[dict] = None,
                 resume_from=None,
                 min_workers: int = 1,
                 roster_script: Optional[Dict[int, List[int]]] = None,
                 drain_timeout_s: float = 10.0,
                 registration_timeout_s: float = 120.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        #: what a client rebuilds the model graph from: (registry name,
        #: builder kwargs), shipped with every registration
        self._model = getattr(task, "registry_model", None)
        if self._model is None:
            raise ServiceError(
                f"task {task.name!r} builds no registry model, so a "
                f"client cannot rebuild its model graph"
            )
        config, checkpoint = resolve_resume(config, resume_from)

        self.telemetry = (
            telemetry if telemetry is not None else DISABLED_TELEMETRY
        )
        self.min_workers = int(min_workers)
        self.roster_script = (
            {int(round_index): [int(w) for w in workers]
             for round_index, workers in roster_script.items()}
            if roster_script is not None else None
        )
        self.drain_timeout_s = float(drain_timeout_s)
        self.registration_timeout_s = float(registration_timeout_s)
        self.draining = False
        self._closed = False

        # listener first: the address is known (and publishable) before
        # the engine's model build does any heavy lifting
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, int(port)))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self.address: Tuple[str, int] = listener.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, None)
        self._conn_by_worker: Dict[int, _Connection] = {}
        #: worker id -> (connection, poll seq, expiry) of its held poll
        self._held: Dict[int, Tuple[_Connection, int, float]] = {}
        #: heap of (expiry, worker id), one per park; stale once answered
        self._expiries: List[Tuple[float, int]] = []

        self.link = PullLink(self, retry=retry)
        # note: config.executor stays "serial" -- the engine builds its
        # remote executor over the link it is handed, so the stored
        # config equals a plain serial run's and a service checkpoint
        # resumes under either `repro serve --resume` or `repro run
        # --resume` without a config-equality mismatch
        self.engine = Engine(
            task, devices, config, hooks=hooks, telemetry=self.telemetry,
            link=self.link, restore=checkpoint,
            checkpoint_meta=checkpoint_meta,
        )
        self.engine.membership_provider = self._membership
        self.engine.checkpoint_extra_provider = (
            self._service_checkpoint_state
        )
        self._scheduler = make_scheduler(config)

        self.roster: Dict[int, RosterEntry] = {
            worker_id: RosterEntry(worker_id=worker_id)
            for worker_id in self.engine.worker_ids
        }
        self.counters: Dict[str, int] = {
            "register": 0, "reconnect": 0, "leave": 0, "lost": 0,
        }
        self._gone_reason: Dict[int, str] = {}
        restored = self.engine.restored_service_state
        if restored:
            for worker_id, summary in restored.get("roster", {}).items():
                entry = self.roster.get(int(worker_id))
                if entry is not None:
                    # every slot restarts GONE: clients must re-register
                    # against the resumed service, whatever state the
                    # killed process last saw
                    entry.registrations = int(
                        summary.get("registrations", 0)
                    )
            for kind, count in restored.get("counters", {}).items():
                if kind in self.counters:
                    self.counters[kind] = int(count)

    # -- lifecycle -----------------------------------------------------
    def run(self):
        """Serve the whole run; returns the training history.

        Blocks until the scheduler finishes (or a drain interrupts it),
        then drains connected clients and closes the listener.
        """
        self._install_signal_handlers()
        self.telemetry.event("service_started", host=self.address[0],
                             port=self.address[1],
                             workers=len(self.roster))
        try:
            try:
                return self._scheduler.run(self.engine)
            except ServiceDrained:
                return self.engine.history
        finally:
            self.shutdown()
            self.engine.close()

    def _install_signal_handlers(self) -> None:
        def _request_drain(signum, frame):
            self.engine.request_interrupt()

        # signal handlers only install on the main thread; tests drive
        # the service from a worker thread and rely on shutdown()
        try:
            signal.signal(signal.SIGTERM, _request_drain)
            signal.signal(signal.SIGINT, _request_drain)
        except ValueError:
            pass

    def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Drain connected clients and close the listener.  Idempotent."""
        if self._closed:
            return
        self.draining = True
        for entry in self.roster.values():
            if entry.state == ACTIVE:
                entry.state = DRAINING
        timeout = (
            drain_timeout_s if drain_timeout_s is not None
            else self.drain_timeout_s
        )
        deadline = time.monotonic() + timeout
        while any(
            entry.state in (ACTIVE, DRAINING)
            for entry in self.roster.values()
        ):
            if time.monotonic() > deadline:
                break
            self.pump(0.05)
        self._closed = True
        for connection in list(self._conn_by_worker.values()):
            self._drop_connection(connection)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for key in list(self._selector.get_map().values()):
            if isinstance(key.data, _Connection):
                self._drop_connection(key.data)
        self._selector.close()
        self.telemetry.event("service_stopped",
                             counters=dict(self.counters))

    # -- the pump ------------------------------------------------------
    def pump(self, timeout_s: float = 0.0) -> int:
        """Serve socket events, waiting up to ``timeout_s`` for the
        first; returns how many sockets had any (a partial frame is
        activity too: the peer is alive).  On the way, expired holds
        are answered ``idle`` and, once draining, all of them ``drain``."""
        if self._closed:
            return 0
        deadline = time.monotonic() + timeout_s
        while True:
            now = time.monotonic()
            # once the service drains, every hold is due
            while self._expiries and (self.draining
                                      or self._expiries[0][0] <= now):
                expiry, worker_id = heapq.heappop(self._expiries)
                held = self._held.get(worker_id)
                if held is not None and held[2] == expiry:
                    self.answer_held(worker_id)
            wait = max(deadline - now, 0.0)
            if self._expiries:
                wait = min(wait, self._expiries[0][0] - now)
            events = self._selector.select(wait)
            for key, _ in events:
                if key.data is None:
                    self._accept()
                else:
                    self._read(key.data)
            if events or time.monotonic() >= deadline:
                self.telemetry.metrics.gauge("held_polls").set(
                    float(len(self._held))
                )
                return len(events)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self._selector.register(
                sock, selectors.EVENT_READ, _Connection(sock=sock)
            )

    def _read(self, connection: _Connection) -> None:
        alive = True
        while True:
            try:
                chunk = connection.sock.recv(1 << 20)
            except BlockingIOError:
                break
            except (ConnectionError, OSError):
                alive = False
                break
            if not chunk:
                alive = False
                break
            connection.frames.feed(chunk)
        try:
            for message in connection.frames.pop_messages():
                self._handle(connection, message)
        except WireFormatError as exc:
            # a malformed or over-cap frame: this peer is broken or
            # hostile, and only this peer pays for it
            self.telemetry.event("peer_rejected",
                                 worker=connection.worker_id,
                                 reason=str(exc))
            alive = False
        if not alive:
            self._disconnect(connection)

    def _send(self, connection: _Connection, message) -> None:
        try:
            send_message(connection.sock, message)
        except SocketClosedError:   # gone, or stuck: drop the peer
            self._disconnect(connection)

    def _disconnect(self, connection: _Connection) -> None:
        worker_id = connection.worker_id
        self._drop_connection(connection)
        if worker_id is None:
            return
        if self._conn_by_worker.get(worker_id) is connection:
            del self._conn_by_worker[worker_id]
        entry = self.roster.get(worker_id)
        if entry is not None and entry.state in (ACTIVE, DRAINING):
            entry.state = GONE
            self._gone_reason[worker_id] = "lost"
            self.counters["lost"] += 1
            metrics = self.telemetry.metrics
            metrics.counter("worker_departures_total", kind="lost").inc()
            metrics.gauge("connected_workers").set(
                float(self._active_count())
            )
            self.telemetry.event("worker_lost", worker=worker_id)

    def _drop_connection(self, connection: _Connection) -> None:
        # a held poll dies with its connection: nothing is popped for it
        if self._held.get(connection.worker_id, (None,))[0] is connection:
            del self._held[connection.worker_id]
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass

    def _active_count(self) -> int:
        return sum(
            1 for entry in self.roster.values() if entry.state == ACTIVE
        )

    def gone_reason(self, worker_id: int) -> Optional[str]:
        """How a worker last went GONE (``"leave"``/``"lost"``), or
        None while it is registered."""
        entry = self.roster.get(worker_id)
        if entry is None or entry.state != GONE:
            return None
        return self._gone_reason.get(worker_id)

    # -- request handling ----------------------------------------------
    def _handle(self, connection: _Connection, message) -> None:
        op, seq = message[0], message[1]
        handler = self._HANDLERS.get(op)
        try:
            if handler is None:
                raise ServiceError(f"unknown request op {op!r}")
            reply = handler(self, connection, message)
        except ServiceError as exc:
            reply = ("err", seq, str(exc))
        except Exception:
            reply = ("err", seq, traceback.format_exc())
        if reply is not None:
            self._send(connection, reply)

    def _op_register(self, connection: _Connection, message):
        _, seq, client_protocol, worker_id = message
        if client_protocol != PROTOCOL_VERSION:
            raise ServiceError(
                f"protocol mismatch: client speaks "
                f"{client_protocol!r}, service speaks "
                f"{PROTOCOL_VERSION}"
            )
        if worker_id is None:
            for candidate in self.engine.worker_ids:
                if self.roster[candidate].state != ACTIVE:
                    worker_id = candidate
                    break
            else:
                raise ServiceError(
                    f"all {len(self.roster)} worker slots are active"
                )
        else:
            if worker_id not in self.roster:
                raise ServiceError(
                    f"unknown worker id {worker_id}; the fleet has "
                    f"slots {self.engine.worker_ids}"
                )
            if self.roster[worker_id].state == ACTIVE:
                raise ServiceError(
                    f"worker {worker_id} is already registered"
                )
        entry = self.roster[worker_id]
        first = entry.registrations == 0
        entry.registrations += 1
        entry.state = DRAINING if self.draining else ACTIVE
        self._gone_reason.pop(worker_id, None)
        stale = self._conn_by_worker.get(worker_id)
        if stale is not None and stale is not connection:
            self._drop_connection(stale)
        connection.worker_id = worker_id
        self._conn_by_worker[worker_id] = connection
        # a poll still held for this slot sits on some other connection
        self._held.pop(worker_id, None)
        self.link.forget_worker(worker_id)
        # a no-op for fleet-provisioned slots (the agent already
        # exists, no RNG is drawn), so parity with a serial reference
        # run survives any number of reconnects; a genuinely new
        # worker gets its E-UCB agent minted here
        spec = self.engine.workers.spec(worker_id)
        self.engine.strategy.register_worker(worker_id, device=spec.device)
        kind = "register" if first else "reconnect"
        self.counters[kind] += 1
        metrics = self.telemetry.metrics
        metrics.counter("registrations_total", kind=kind).inc()
        metrics.gauge("connected_workers").set(
            float(self._active_count())
        )
        self.telemetry.event("worker_registered", worker=worker_id,
                             kind=kind)
        return ("registered", seq, spec, self._model)

    def _registered_entry(self, connection: _Connection,
                          worker_id: int) -> RosterEntry:
        if connection.worker_id != worker_id:
            raise ServiceError(
                f"connection is registered as worker "
                f"{connection.worker_id}, not {worker_id}"
            )
        return self.roster[worker_id]

    def _op_leave(self, connection: _Connection, message):
        _, seq, worker_id = message
        entry = self._registered_entry(connection, worker_id)
        entry.state = GONE
        self._gone_reason[entry.worker_id] = "leave"
        self.counters["leave"] += 1
        if self._conn_by_worker.get(entry.worker_id) is connection:
            del self._conn_by_worker[entry.worker_id]
        connection.worker_id = None
        metrics = self.telemetry.metrics
        metrics.counter("worker_departures_total", kind="leave").inc()
        metrics.gauge("connected_workers").set(
            float(self._active_count())
        )
        self.telemetry.event("worker_left", worker=entry.worker_id)
        return ("bye", seq)

    def _op_pull_dispatch(self, connection: _Connection, message):
        _, seq, worker_id, hold_s = message
        entry = self._registered_entry(connection, worker_id)
        if not hold_s >= 0.0:
            raise ServiceError(f"a poll cannot be held for {hold_s} s")
        reply = self._poll_reply(entry.worker_id, seq, hold=True)
        if reply is None:
            # nothing to say yet: park the poll; answer_held replies
            expiry = time.monotonic() + min(hold_s, MAX_HOLD_S)
            self._held[entry.worker_id] = (connection, seq, expiry)
            heapq.heappush(self._expiries, (expiry, entry.worker_id))
        return reply

    def _poll_reply(self, worker_id: int, seq: int, hold: bool):
        """What a poll is answered with now; None = ``hold`` it."""
        # ("dispatch", tseq, frame) from the outbox
        item = ("drain",) if self.draining else self.link.next_for(worker_id)
        if item is None:
            if hold:
                return None
            item = ("idle",)
        self.telemetry.metrics.counter("polls_total",
                                       outcome=item[0]).inc()
        return (item[0], seq, *item[1:])

    def answer_held(self, worker_id: int) -> None:
        """Answer the worker's held poll, if it has one, with whatever
        is due now: a just-queued item, ``drain``, or ``idle``."""
        held = self._held.pop(worker_id, None)
        if held is not None:
            self._send(held[0], self._poll_reply(worker_id, held[1],
                                                 hold=False))

    def _op_push_contribution(self, connection: _Connection, message):
        _, seq, worker_id, tseq, frame = message
        entry = self._registered_entry(connection, worker_id)
        self.link.deliver(tseq, entry.worker_id, frame)
        return ("accepted", seq)

    def _op_heartbeat(self, connection: _Connection, message):
        _, seq, worker_id, sent_at = message
        entry = self._registered_entry(connection, worker_id)
        lag = max(0.0, time.time() - sent_at)
        self.telemetry.metrics.gauge(
            "heartbeat_lag_s", worker=str(entry.worker_id)
        ).set(lag)
        return ("pong", seq)

    _HANDLERS = {
        "register": _op_register,
        "leave": _op_leave,
        "pull_dispatch": _op_pull_dispatch,
        "push_contribution": _op_push_contribution,
        "heartbeat": _op_heartbeat,
    }

    # -- membership ----------------------------------------------------
    def _scripted_for(self, round_index: int) -> List[int]:
        script = self.roster_script
        applicable = [key for key in script if key <= round_index]
        if not applicable:
            raise ServiceError(
                f"roster script has no entry applicable to round "
                f"{round_index} (keys: {sorted(script)})"
            )
        return list(script[max(applicable)])

    def _membership(self, round_index: int) -> List[int]:
        """The engine's membership provider: who trains this round.

        Scripted mode waits until every scripted worker is registered,
        then returns exactly the scripted list; live mode waits for
        ``min_workers`` before round 0 and for at least one active
        worker before later rounds, then returns whoever is active.
        Consumes no engine RNG either way.  What clients sent since the
        last gather (a ``leave``, above all) is read first: a worker that
        left between rounds is never handed the next round's flight.
        """
        self.pump(0.0)
        deadline = time.monotonic() + self.registration_timeout_s
        while True:
            if self.roster_script is not None:
                wanted = self._scripted_for(round_index)
                missing = [
                    worker_id for worker_id in wanted
                    if self.roster[worker_id].state != ACTIVE
                ]
                if not missing:
                    return wanted
            else:
                needed = self.min_workers if round_index == 0 else 1
                active = [
                    worker_id for worker_id in self.engine.worker_ids
                    if self.roster[worker_id].state == ACTIVE
                ]
                if len(active) >= needed:
                    return active
                missing = f"{needed - len(active)} more worker(s)"
            if self.engine.interrupt_requested:
                self._drain_abort(round_index)
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"round {round_index}: still waiting for {missing} "
                    f"after {self.registration_timeout_s:.0f}s"
                )
            self.pump(0.05)

    def _drain_abort(self, round_index: int) -> None:
        """A drain arrived while waiting for workers: checkpoint the
        completed prefix (the cadence may not have) and bail out.

        Only a rule that keeps no queue waits at a round boundary.  A
        queued rule asks for round ``r``'s roster from its re-dispatch
        *inside* round ``r - 1``, whose update is already in the model
        but whose record and flights are not saved yet: the last
        cadence checkpoint stays the resume point.
        """
        if (round_index > 0 and not self._scheduler.queued
                and self.engine.checkpointer is not None):
            self.engine.checkpointer.save(
                self.engine, self._scheduler.name, round_index
            )
        raise ServiceDrained(
            f"drain requested while waiting for workers before round "
            f"{round_index}"
        )

    # -- checkpoint extras ---------------------------------------------
    def _service_checkpoint_state(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "counters": dict(self.counters),
            "roster": {
                worker_id: {"state": entry.state,
                            "registrations": entry.registrations}
                for worker_id, entry in self.roster.items()
            },
        }
