"""Control-frame streams and the client-side socket transport.

Every message on the service socket is one codec control frame
(:func:`repro.runtime.codec.encode_control`): an ``(op, seq, *fields)``
tuple in the op table's binary layout, CRC-checked, with the dispatch
or contribution frame a message carries written after it as it is --
the same bytes a pool pipe carries, so the wire profiles (exact /
sparse / sparse+quantized) and their parity guarantees carry over
unchanged.  The op table fixes every field's kind, so a malformed or
hostile frame is a :class:`~repro.runtime.codec.WireFormatError` before
any field is interpreted.

:func:`send_message` is the one send path (the client's blocking socket
and the service's non-blocking ones); :class:`FrameBuffer` is the
incremental decoder every receive goes through: feed it whatever
``recv`` returned, pop every complete message.

:class:`SocketTransport` is the worker side: one TCP connection to the
service, each request awaiting its reply in
:meth:`~repro.runtime.transport.RetryClock.wait_until` -- the loop the
service's own gather waits in.
"""

from __future__ import annotations

import select
import socket
from typing import Iterator, Optional, Tuple

from repro.runtime.codec import (
    CONTROL_PREFIX,
    control_frame_size,
    decode_control,
    encode_control,
)
from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    WorkerCrashError,
)

__all__ = [
    "SocketClosedError",
    "FrameBuffer",
    "send_message",
    "SocketTransport",
]

#: how long a send waits for a peer that takes no bytes
SEND_STALL_S = 5.0


class SocketClosedError(TransportError):
    """The peer closed the connection mid-conversation."""


def send_message(sock: socket.socket, message) -> None:
    """Send one message as a control frame and its trailing frame, in
    one gathered write where the socket takes it all.  A peer that went
    away, or (on a non-blocking socket) takes nothing for
    :data:`SEND_STALL_S`, is a :class:`SocketClosedError`."""
    parts = [memoryview(part) for part in encode_control(message) if part]
    try:
        while parts:
            try:
                sent = sock.sendmsg(parts)
            except BlockingIOError:   # a non-blocking peer's buffer is full
                if not select.select([], [sock], [], SEND_STALL_S)[1]:
                    raise SocketClosedError(
                        f"peer took nothing for {SEND_STALL_S:.0f} s")
                continue
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if sent:
                parts[0] = parts[0][sent:]
    except (ConnectionError, OSError) as exc:
        raise SocketClosedError(f"peer went away mid-send: {exc}") from exc


class FrameBuffer:
    """Incremental control-frame decoder for non-blocking reads.

    ``feed`` whatever bytes ``recv`` produced (possibly a partial
    frame, possibly several frames), then drain ``pop_messages``.  A
    prefix that starts no valid control frame raises at once, before
    the rest of it arrives.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pop_messages(self) -> Iterator[tuple]:
        while len(self._buffer) >= CONTROL_PREFIX:
            size = control_frame_size(self._buffer)
            if len(self._buffer) < size:
                return
            with memoryview(self._buffer) as view:
                message = decode_control(view[:size])
            del self._buffer[:size]
            yield message


class SocketTransport:
    """One TCP request/response channel to the parameter-server service.

    ``(op, seq, *fields)`` control messages; the reply carries the
    request's ``seq``, and ``("err", seq, traceback)`` raises
    :class:`TransportError`.  Replies whose sequence number does not
    match the outstanding request are discarded (they can only be late
    replies to an earlier abandoned call).
    """

    name = "socket"

    def __init__(self, address: Tuple[str, int],
                 retry: Optional[RetryPolicy] = None,
                 metrics=None,
                 connect_timeout_s: float = 10.0) -> None:
        self.address = address
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = metrics
        self._sock: Optional[socket.socket] = None
        self._frames = FrameBuffer()
        self._connect_timeout_s = connect_timeout_s

    # -- connection lifecycle ------------------------------------------
    def connect(self) -> "SocketTransport":
        sock = socket.create_connection(
            self.address, timeout=self._connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self._sock = sock
        return self

    def send(self, message) -> None:
        if self._sock is None:
            raise WorkerCrashError("socket transport is not connected")
        try:
            send_message(self._sock, message)
        except SocketClosedError:
            self.close()
            raise

    def request(self, message):
        """Send one message and await its reply.

        TCP never drops messages mid-connection, so nothing is resent.
        A connection that closes with the request outstanding raises
        :class:`~repro.runtime.transport.WorkerCrashError`.
        """
        seq = message[1]
        replies = []
        self.send(message)

        def done() -> bool:
            for reply in self._frames.pop_messages():
                if reply[1] == seq:
                    replies.append(reply)
                    return True
            return False   # anything else answered an abandoned call

        def wait(timeout_s: float) -> bool:
            if not select.select([self._sock], [], [], timeout_s)[0]:
                return False
            try:
                chunk = self._sock.recv(1 << 20)
            except OSError:   # reset or broken: the connection is gone
                chunk = b""
            if chunk:
                self._frames.feed(chunk)
            else:
                self.close()   # lost() reports it
            return True

        def lost() -> Optional[str]:
            return None if self._sock is not None else (
                f"connection to {self.address} lost while a "
                f"{message[0]!r} request was outstanding")

        self.retry.clock().wait_until(done, wait, lost,
                                      self.metrics, self.name)
        reply = replies[0]
        if reply[0] == "err":
            raise TransportError(
                f"service raised while handling {message[0]!r}:\n"
                f"{reply[2]}"
            )
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
