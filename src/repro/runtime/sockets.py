"""Length-prefixed socket framing and the client-side socket transport.

The service protocol speaks pickled ``(op, seq, *args)`` tuples across
host boundaries, so each message is framed as a 4-byte big-endian
length prefix followed by the pickled payload.  Binary training
payloads stay in the CRC-checked :mod:`repro.runtime.codec` frames and
ride inside the pickled tuple as ``bytes``, exactly the bytes a pool
pipe carries; the socket layer adds framing only, never re-encodes, so
the wire profiles (exact / sparse / sparse+quantized) and their parity
guarantees carry over unchanged.

Nothing that crosses the socket needs more than builtin containers,
scalars, ``bytes`` and NumPy arrays, so every receive path here
unpickles through :func:`safe_loads`, an allow-list unpickler: a frame
that names any other global -- the ``__reduce__`` route to code
execution -- raises :class:`~repro.runtime.transport.TransportError`
before anything is constructed.

:func:`send_message` is the blocking send; :class:`FrameBuffer` is
the incremental decoder every receive goes through (the service's
non-blocking ``selectors`` loop and the client transport): feed it
whatever ``recv`` returned, pop every complete message.

:class:`SocketTransport` is the worker side: one TCP connection to the
service, each request awaiting its reply in
:meth:`~repro.runtime.transport.RetryClock.wait_until` -- the loop the
service's own gather waits in.
"""

from __future__ import annotations

import io
import pickle
import select
import socket
import struct
from typing import Iterator, Optional, Tuple

from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    WorkerCrashError,
)

__all__ = [
    "SocketClosedError",
    "FrameBuffer",
    "encode_message",
    "safe_loads",
    "send_message",
    "SocketTransport",
]

_LENGTH = struct.Struct("!I")

#: hard sanity cap on one framed message (a corrupt or misaligned
#: length prefix must fail loudly, not allocate gigabytes)
MAX_MESSAGE_BYTES = 1 << 30


#: the only globals a socket peer's pickle may name: NumPy's array,
#: scalar and dtype reconstructors
_NUMPY_RECONSTRUCTORS = (
    ("numpy", "dtype"), ("numpy", "ndarray"),
    ("numpy._core.numeric", "_frombuffer"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "scalar"),
)
_ALLOWED_GLOBALS = frozenset(_NUMPY_RECONSTRUCTORS) | frozenset(
    # the module spelling NumPy 1.x pickles carry
    (module.replace("._core.", ".core."), name)
    for module, name in _NUMPY_RECONSTRUCTORS
)


class SocketClosedError(TransportError):
    """The peer closed the connection mid-conversation."""


class _AllowListUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(
                f"global {module}.{name} is not allowed on the wire"
            )
        return super().find_class(module, name)


def safe_loads(data: bytes):
    """Unpickle bytes from a socket peer: builtin containers, scalars,
    ``bytes`` and NumPy arrays only.  Anything else -- a disallowed
    global, truncated or garbage pickle -- is a typed
    :class:`~repro.runtime.transport.TransportError`."""
    try:
        return _AllowListUnpickler(io.BytesIO(data)).load()
    except Exception as exc:
        raise TransportError(f"undecodable message: {exc}") from exc


def encode_message(message) -> bytes:
    """Frame one message for the wire (length prefix + pickle)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise TransportError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def send_message(sock: socket.socket, message) -> None:
    """Frame and send one message (blocking)."""
    try:
        sock.sendall(encode_message(message))
    except (BrokenPipeError, ConnectionError, OSError) as exc:
        raise SocketClosedError(f"peer went away mid-send: {exc}") from exc


class FrameBuffer:
    """Incremental frame decoder for non-blocking reads.

    ``feed`` whatever bytes ``recv`` produced (possibly a partial
    frame, possibly several frames), then drain ``pop_messages``.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pop_messages(self) -> Iterator[object]:
        while True:
            if len(self._buffer) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack(self._buffer[:_LENGTH.size])
            if length > MAX_MESSAGE_BYTES:
                raise TransportError(
                    f"frame announces {length} bytes, over the "
                    f"{MAX_MESSAGE_BYTES}-byte cap -- stream corrupt?"
                )
            end = _LENGTH.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_LENGTH.size:end])
            del self._buffer[:end]
            yield safe_loads(payload)


class SocketTransport:
    """One TCP request/response channel to the parameter-server service.

    Pickled ``(op, seq, *args)`` tuples; the reply carries the request's
    ``seq``, and ``("err", seq, traceback)`` raises
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
                if len(reply) >= 2 and reply[1] == seq:
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
