"""The worker-side client of the parameter-server service.

:class:`ServiceClient` dials a :class:`~repro.serve.service.
FedMPService`, registers (taking any free slot, or a specific
``worker_id``), builds its worker from the worker record the service
ships back and its model skeleton from the model record (a registry
name and builder kwargs), and then serves the pull loop: send ``pull_dispatch`` (held by the service until it has
work, or answered ``idle`` after the hold this client offers), run the
exact :func:`repro.runtime.pool.handle_train` body every pool child runs
(derive the sub-model from the skeleton and the frame, put the worker's
data stream at the frame's stream record, train, encode with the
advanced record), push the contribution frame back.  The client keeps
no state the service needs: every stream position travels in the
frames, so socket-run training is bitwise identical to pipe-run
training by construction, and a client may vanish at any point.

Every reply is a control frame whose fields the codec's op table
types, so a malformed or hostile reply (an impersonated service's, say)
is a :class:`~repro.runtime.codec.WireFormatError` :meth:`run` raises.

Churn knobs:

- ``leave_after=N`` leaves gracefully after N completed dispatches;
- ``reconnect=True`` redials the same address (keeping the assigned
  worker id) when the connection drops -- the client of a SIGKILLed
  service simply waits for the resumed service to come back up.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models import build_model
from repro.runtime import pool
from repro.runtime.codec import WireFormatError
from repro.runtime.sockets import SocketClosedError, SocketTransport
from repro.runtime.transport import (
    RetryPolicy,
    TransportTimeoutError,
    WorkerCrashError,
)
from repro.serve.protocol import PROTOCOL_VERSION

__all__ = ["ClientError", "ServiceClient"]


class ClientError(RuntimeError):
    """The client could not register with or follow the service."""


class ServiceClient:
    """One worker process behind the socket protocol."""

    def __init__(self, address: Tuple[str, int], *,
                 worker_id: Optional[int] = None,
                 retry: Optional[RetryPolicy] = None,
                 heartbeat_s: float = 2.0,
                 reconnect: bool = False,
                 reconnect_timeout_s: float = 60.0,
                 leave_after: Optional[int] = None,
                 metrics=None) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.worker_id = worker_id
        self.retry = retry if retry is not None else RetryPolicy()
        self.heartbeat_s = float(heartbeat_s)
        self.reconnect = bool(reconnect)
        self.reconnect_timeout_s = float(reconnect_timeout_s)
        self.leave_after = leave_after
        self.metrics = metrics
        #: dispatches completed across the client's whole life,
        #: reconnections included
        self.completed = 0
        self._seq = 0
        self.transport: Optional[SocketTransport] = None
        self.workers: Dict[int, object] = {}
        self.skeleton = None

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- lifecycle -----------------------------------------------------
    def run(self) -> int:
        """Serve until the service drains (or ``leave_after`` fires).

        Returns the total number of completed dispatches.  Connection
        loss raises unless ``reconnect`` is set, in which case the
        client redials (keeping its worker id) until
        ``reconnect_timeout_s`` of consecutive failures have passed.
        Anything else -- a service error, a malformed reply -- raises.
        """
        deadline = None
        while True:
            try:
                self._connect_and_register()
                deadline = None
                self._serve()
                return self.completed
            except Exception as exc:
                self._close()
                if not self.reconnect or not isinstance(exc, (
                        SocketClosedError, WorkerCrashError,
                        TransportTimeoutError, ConnectionError, OSError)):
                    raise
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self.reconnect_timeout_s
                if now > deadline:
                    raise ClientError(
                        f"could not re-reach the service at "
                        f"{self.address} within "
                        f"{self.reconnect_timeout_s:.0f}s: {exc}"
                    ) from exc
                time.sleep(0.2)

    def _connect_and_register(self) -> None:
        self._close()
        transport = SocketTransport(self.address, retry=self.retry,
                                    metrics=self.metrics)
        transport.connect()
        self.transport = transport
        reply = transport.request(("register", self._next_seq(),
                                   PROTOCOL_VERSION, self.worker_id))
        if reply[0] != "registered":
            raise WireFormatError(f"register answered with {reply[0]!r}")
        _, _, spec, (name, kwargs) = reply
        try:
            self.workers = {spec.worker_id: spec.build()}
            self.skeleton = build_model(name, rng=np.random.default_rng(0),
                                        **kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise WireFormatError(
                f"the registered reply builds no worker and model: {exc}"
            ) from exc
        self.worker_id = spec.worker_id

    def _serve(self) -> None:
        last_beat = time.monotonic()
        # under the first retry interval, so a held poll never counts as
        # a retry, and under the heartbeat cadence, so it beats on time
        hold_s = 0.8 * min(self.retry.backoff(0), self.heartbeat_s)
        while True:
            reply = self.transport.request(
                ("pull_dispatch", self._next_seq(), self.worker_id,
                 hold_s)
            )
            op = reply[0]
            if op == "dispatch":
                _, _, tseq, frame = reply
                out = pool.handle_train(self.workers, self.skeleton, frame)
                self.transport.request(
                    ("push_contribution", self._next_seq(),
                     self.worker_id, tseq, out)
                )
                self.completed += 1
                if (self.leave_after is not None
                        and self.completed >= self.leave_after):
                    self._leave()
                    return
            elif op == "idle":
                now = time.monotonic()
                if now - last_beat >= self.heartbeat_s:
                    self.transport.request(
                        ("heartbeat", self._next_seq(), self.worker_id,
                         time.time())
                    )
                    last_beat = now
            elif op == "drain":
                self._leave()
                return
            else:
                raise WireFormatError(
                    f"unexpected pull_dispatch reply op {op!r}"
                )

    def _leave(self) -> None:
        try:
            self.transport.request(
                ("leave", self._next_seq(), self.worker_id)
            )
        finally:
            self._close()

    def _close(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None
