"""The parameter-server service protocol: versioning and lifecycle.

The request grammar is :data:`repro.runtime.codec.CONTROL_OPS`: every
message is one ``(op, seq, *fields)`` control frame in the layout that
table gives (see :mod:`repro.runtime.sockets` and DESIGN.md §3.8).  All
requests are client-initiated; each reply echoes its request's ``seq``,
and a handler error comes back as ``("err", seq, text)``.

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

__all__ = [
    "PROTOCOL_VERSION",
    "ACTIVE",
    "DRAINING",
    "GONE",
    "RosterEntry",
]

#: bumped on any incompatible change to the request grammar;
#: ``register`` is refused when client and service disagree
PROTOCOL_VERSION = 5

#: lifecycle states of a roster entry
ACTIVE = "active"
DRAINING = "draining"
GONE = "gone"


@dataclass
class RosterEntry:
    """One worker slot's registration record on the service."""

    worker_id: int
    state: str = GONE
    #: how many times this slot has registered (1 = first join)
    registrations: int = 0
