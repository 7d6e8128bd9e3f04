"""Socket framing and the client-side socket transport."""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from typing import List

import numpy as np
import pytest

from repro.runtime.sockets import (
    _LENGTH,
    MAX_MESSAGE_BYTES,
    FrameBuffer,
    SocketClosedError,
    SocketTransport,
    encode_message,
    safe_loads,
    send_message,
)
from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    TransportTimeoutError,
    WorkerCrashError,
)
from repro.telemetry import MetricsRegistry
from tests.support.sockets import next_message


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionError, OSError) as exc:
            raise SocketClosedError(
                f"peer went away mid-receive: {exc}"
            ) from exc
        if not chunk:
            raise SocketClosedError(
                f"connection closed with {remaining} of {count} "
                f"byte(s) unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket):
    """Receive one framed message (blocking); the test-side reader of
    what :func:`send_message` writes."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_MESSAGE_BYTES:
        raise TransportError(
            f"frame announces {length} bytes, over the "
            f"{MAX_MESSAGE_BYTES}-byte cap -- stream corrupt?"
        )
    return safe_loads(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        message = ("train", 7, b"\x00\x01" * 500, {"key": [1, 2]})
        send_message(a, message)
        assert recv_message(b) == message
    finally:
        a.close()
        b.close()


def test_frame_buffer_survives_arbitrary_chunking():
    messages = [("op", i, "x" * (i * 13)) for i in range(6)]
    wire = b"".join(encode_message(m) for m in messages)
    buffer = FrameBuffer()
    out = []
    for cut in range(0, len(wire), 7):     # drip-feed 7 bytes at a time
        buffer.feed(wire[cut:cut + 7])
        out.extend(buffer.pop_messages())
    assert out == messages
    assert buffer._buffer == bytearray()


def test_frame_buffer_rejects_oversized_length_prefix():
    buffer = FrameBuffer()
    buffer.feed(struct.pack("!I", MAX_MESSAGE_BYTES + 1))
    with pytest.raises(TransportError):
        list(buffer.pop_messages())


class _Touch:
    """Pickles to a call of ``os.mkdir`` -- the ``__reduce__`` route to
    running code in whoever unpickles it."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def hostile_frames(sentinel) -> dict:
    """Framed payloads a hostile peer might send (shared with the
    service-level test): each must end in a TransportError."""
    bomb = pickle.dumps(("register", 1, _Touch(str(sentinel))))
    garbage = np.random.default_rng(0).bytes(256)
    return {
        "reduce_bomb": struct.pack("!I", len(bomb)) + bomb,
        "garbage": struct.pack("!I", len(garbage)) + garbage,
        "over_cap": struct.pack("!I", MAX_MESSAGE_BYTES + 1) + b"x" * 64,
    }


@pytest.mark.parametrize("kind", ["reduce_bomb", "garbage", "over_cap"])
def test_hostile_frames_raise_typed_errors(tmp_path, kind):
    sentinel = tmp_path / "pwned"
    wire = hostile_frames(sentinel)[kind]
    buffer = FrameBuffer()
    buffer.feed(wire)
    with pytest.raises(TransportError):
        list(buffer.pop_messages())
    a, b = socket.socketpair()
    try:
        a.sendall(wire)
        with pytest.raises(TransportError):
            recv_message(b)
    finally:
        a.close()
        b.close()
    assert not sentinel.exists()
    # the control: plain pickle.loads would have run the payload
    if kind == "reduce_bomb":
        pickle.loads(wire[4:])
        assert sentinel.exists()


def test_safe_loads_admits_exactly_what_the_protocol_ships():
    state = {
        "rng": np.random.default_rng(3).bit_generator.state,
        "iterator": {"order": np.arange(7)[::-1], "cursor": 3},
        "scalars": (np.float32(0.5), np.int64(4), 1.5, None, True),
        "frame": b"\x00\x01",
    }
    for protocol in (4, pickle.HIGHEST_PROTOCOL):
        decoded = safe_loads(pickle.dumps(state, protocol=protocol))
        assert decoded["rng"] == state["rng"]
        np.testing.assert_array_equal(decoded["iterator"]["order"],
                                      state["iterator"]["order"])
        assert decoded["scalars"] == state["scalars"]
    for refused in (RetryPolicy(), np.random.default_rng(0), os.getcwd):
        with pytest.raises(TransportError, match="undecodable"):
            safe_loads(pickle.dumps(refused))


def test_recv_on_closed_peer_raises():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(SocketClosedError):
            recv_message(b)
    finally:
        b.close()


def test_truncated_frame_raises():
    a, b = socket.socketpair()
    try:
        wire = encode_message(("op", 1, "payload"))
        a.sendall(wire[:len(wire) - 3])    # cut the frame short
        a.close()
        with pytest.raises(SocketClosedError):
            recv_message(b)
    finally:
        b.close()


# ----------------------------------------------------------------------
# SocketTransport against a toy server
# ----------------------------------------------------------------------
class _ToyServer:
    """Accept one connection; answer each message via ``handler``."""

    def __init__(self, handler):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.address = self.listener.getsockname()
        self.handler = handler
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        with conn:
            try:
                while True:
                    message = recv_message(conn)
                    for reply in self.handler(message):
                        if reply == "CLOSE":
                            return
                        send_message(conn, reply)
            except (SocketClosedError, OSError):
                pass

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


def _transport(server, **retry_kwargs):
    retry = RetryPolicy(**retry_kwargs) if retry_kwargs else None
    return SocketTransport(server.address, retry=retry).connect()


def test_request_matches_seq_and_discards_stale_replies():
    server = _ToyServer(
        lambda m: [("stale", m[1] - 1, None), ("pong", m[1], "ok")]
    )
    transport = _transport(server)
    try:
        assert transport.request(("ping", 4)) == ("pong", 4, "ok")
    finally:
        transport.close()
        server.close()


def test_err_reply_raises_transport_error():
    server = _ToyServer(lambda m: [("err", m[1], "boom traceback")])
    transport = _transport(server)
    try:
        with pytest.raises(TransportError, match="boom"):
            transport.request(("explode", 1))
    finally:
        transport.close()
        server.close()


def test_silent_server_times_out_and_counts_retries():
    server = _ToyServer(lambda m: [])
    metrics = MetricsRegistry(enabled=True)
    retry = RetryPolicy(timeout_s=0.5, max_retries=3, backoff_s=0.02)
    transport = SocketTransport(server.address, retry=retry,
                                metrics=metrics).connect()
    try:
        with pytest.raises(TransportTimeoutError):
            transport.request(("ping", 1))
        retries = sum(
            counter.value for counter in metrics.counters
            if counter.name == "retries_total"
            and counter.labels.get("transport") == "socket"
        )
        assert retries >= 1
    finally:
        transport.close()
        server.close()


def test_connection_drop_mid_request_raises_crash():
    server = _ToyServer(lambda m: ["CLOSE"])
    transport = _transport(server)
    try:
        with pytest.raises(WorkerCrashError):
            transport.request(("ping", 1))
    finally:
        transport.close()
        server.close()


def test_next_message_returns_in_arrival_order():
    server = _ToyServer(
        lambda m: [("first", 100), ("second", 200)]
    )
    transport = _transport(server)
    try:
        transport.send(("kick", 1))
        assert next_message(transport, timeout_s=5.0) == ("first", 100)
        assert next_message(transport, timeout_s=5.0) == ("second", 200)
        assert next_message(transport, timeout_s=0.05) is None
    finally:
        transport.close()
        server.close()
