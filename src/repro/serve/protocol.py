"""The parameter-server service protocol: ops, versioning, lifecycle.

Every message is a pickled ``(op, seq, *args)`` tuple inside a
length-prefixed frame (see :mod:`repro.runtime.sockets`), unpickled on
receipt through that module's allow-list: builtin containers, scalars,
``bytes`` and NumPy arrays are all the grammar below needs, so a frame
naming any other global is refused and its connection dropped.  All
requests are **client-initiated**: every byte the service writes is the
reply to a request made on that connection, so a worker's single TCP
connection is a clean request/response channel and
:class:`~repro.runtime.sockets.SocketTransport` drives the whole
client side.  Only *when* one reply is written is the service's choice:
a ``pull_dispatch`` with nothing queued is held for up to ``hold_s``
(the client's offer, capped by the service) and answered the moment a
dispatch is queued for that worker -- or with
``drain`` at shutdown, or ``idle`` when the hold runs out.  Training
payloads stay in the CRC-checked :mod:`repro.runtime.codec` frames and
ride as ``bytes`` arguments.

Request grammar (replies echo the request ``seq``; any handler error
comes back as ``("err", seq, traceback_text)``):

===========================================  =================================
request                                      replies
===========================================  =================================
``("register", seq, info)``                  ``("registered", seq, payload)``
``("leave", seq, wid)``                      ``("bye", seq)``
``("pull_dispatch", seq, wid, hold_s)``      ``("dispatch", seq, tseq, frame)``
                                             / ``("idle", seq)`` /
                                             ``("drain", seq)``
``("push_contribution", seq, wid, tseq,      ``("accepted", seq)``
frame)``
``("heartbeat", seq, wid, sent_at)``         ``("pong", seq)``
``("status", seq)``                          ``("status_ok", seq, report)``
===========================================  =================================

``info`` carries ``{"protocol": PROTOCOL_VERSION, "worker_id": id or
None}``; the ``registered`` payload returns the assigned worker id plus
two ``bytes`` blobs the client unpickles itself (it trusts the service
it dialled): ``spec``, a :class:`~repro.runtime.pool.WorkerSpec` from
which it builds the worker (its shard), and ``skeleton``, the global
model's module graph.  A ``dispatch`` reply carries nothing but the
codec frame: the client derives the sub-model from the skeleton and
the frame's plan, state and RNG record
(:func:`repro.runtime.pool.derive_submodel`) and trains from the
frame's stream record, whose advanced copy rides back in the
contribution -- so a re-issued dispatch is the same bytes again, and
no worker state ever lives only in a client.

Worker lifecycle::

    register --> ACTIVE --(service drains)--> DRAINING --leave--> GONE
                   ^                                               |
                   +--------------- re-register -------------------+

A graceful ``leave`` and a dropped connection both transition to
GONE; either way the service holds the worker's true stream position
(committed from its last collected contribution), so a re-registering
worker -- in this run or a resumed one -- continues it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "PROTOCOL_VERSION",
    "ACTIVE",
    "DRAINING",
    "GONE",
    "WORKER_STATES",
    "RosterEntry",
]

#: bumped on any incompatible change to the request grammar above;
#: ``register`` is refused when client and service disagree
PROTOCOL_VERSION = 4

#: lifecycle states of a roster entry
ACTIVE = "active"
DRAINING = "draining"
GONE = "gone"
WORKER_STATES = (ACTIVE, DRAINING, GONE)


@dataclass
class RosterEntry:
    """One worker slot's registration record on the service."""

    worker_id: int
    state: str = GONE
    #: how many times this slot has registered (1 = first join)
    registrations: int = 0
    #: host wall-clock of the last heartbeat or request
    last_seen: Optional[float] = None

    def summary(self) -> dict:
        """Checkpoint/status form."""
        return {
            "state": self.state,
            "registrations": self.registrations,
        }
