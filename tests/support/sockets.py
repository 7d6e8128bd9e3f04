"""Socket test instrument: read a client connection's raw inbound
stream, message by message."""

from __future__ import annotations

import select
import time
from typing import Optional

from repro.runtime.sockets import SocketClosedError, SocketTransport


def next_message(transport: SocketTransport,
                 timeout_s: Optional[float] = None):
    """The next inbound message in arrival order (None on timeout).

    Unlike :meth:`SocketTransport.request` this never discards anything:
    it is the read primitive for tests that must see *every* message a
    pumped service sends, whatever its sequence number.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        for message in transport._frames.pop_messages():
            return message
        if transport._sock is None:
            raise SocketClosedError(
                f"connection to {transport.address} is closed"
            )
        if deadline is None:
            wait = None
        else:
            wait = deadline - time.monotonic()
            if wait <= 0:
                return None
        ready, _, _ = select.select([transport._sock], [], [], wait)
        if not ready:
            return None
        try:
            chunk = transport._sock.recv(1 << 20)
        except (ConnectionError, OSError) as exc:
            transport.close()
            raise SocketClosedError(
                f"connection to {transport.address} broke: {exc}"
            ) from exc
        if not chunk:
            transport.close()
            raise SocketClosedError(
                f"service at {transport.address} closed the connection"
            )
        transport._frames.feed(chunk)
