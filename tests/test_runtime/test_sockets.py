"""Control frames on the service socket and the client-side transport."""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.plan import PruningPlan
from repro.runtime.codec import (
    CONTROL_OPS,
    CONTROL_PREFIX,
    KIND_CONTROL,
    MAX_MESSAGE_BYTES,
    WIRE_VERSION,
    TrainHyper,
    WireFormatError,
    control_frame_size,
    decode_contribution,
    decode_control,
    decode_dispatch,
    encode_contribution,
    encode_control,
    encode_dispatch,
)
from repro.runtime.pool import ITERATOR_KINDS, WorkerSpec
from repro.runtime.sockets import (
    FrameBuffer,
    SocketClosedError,
    SocketTransport,
    send_message,
)
from repro.runtime.transport import (
    RetryPolicy,
    TransportError,
    TransportTimeoutError,
    WorkerCrashError,
)
from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile
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
    """Receive one control frame (blocking); the test-side reader of
    what :func:`send_message` writes."""
    prefix = _recv_exact(sock, CONTROL_PREFIX)
    size = control_frame_size(prefix)
    return decode_control(prefix + _recv_exact(sock, size - CONTROL_PREFIX))


def _wire(*messages) -> bytes:
    return b"".join(b"".join(encode_control(m)) for m in messages)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        message = ("dispatch", 7, 3, b"\x00\x01" * 500)
        send_message(a, message)
        assert recv_message(b) == message
    finally:
        a.close()
        b.close()


def test_frame_buffer_survives_arbitrary_chunking():
    messages = [("err", i, "x" * (i * 13)) for i in range(6)]
    messages.append(("push_contribution", 9, 1, 4, b"y" * 40))
    wire = _wire(*messages)
    buffer = FrameBuffer()
    out = []
    for cut in range(0, len(wire), 7):     # drip-feed 7 bytes at a time
        buffer.feed(wire[cut:cut + 7])
        out.extend(buffer.pop_messages())
    assert out == messages
    assert buffer._buffer == bytearray()


def test_frame_buffer_rejects_oversized_length_prefix():
    buffer = FrameBuffer()
    buffer.feed(struct.pack("<4sHBBII", b"FMPW", WIRE_VERSION, KIND_CONTROL,
                            0, 16, MAX_MESSAGE_BYTES))
    with pytest.raises(WireFormatError, match="cap"):
        list(buffer.pop_messages())


class _Touch:
    """Pickles to a call of ``os.mkdir`` -- the ``__reduce__`` route to
    running code in whoever unpickles it."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def hostile_frames(sentinel) -> dict:
    """Bytes a hostile peer might send (shared with the service- and
    client-level tests): each must end in a :class:`WireFormatError`.

    ``reduce_bomb`` is a protocol-4 ``registered`` reply whose ``spec``
    is a pickle that runs ``os.mkdir(sentinel)`` once loaded: what a
    client that unpickles the spec of its registration would run.
    """
    bomb = pickle.dumps(("registered", 1, {
        "protocol": 4, "worker_id": 0, "skeleton": b"",
        "spec": pickle.dumps(_Touch(str(sentinel))),
    }))
    garbage = np.random.default_rng(0).bytes(256)
    return {
        "reduce_bomb": struct.pack("!I", len(bomb)) + bomb,
        "garbage": struct.pack("!I", len(garbage)) + garbage,
        "over_cap": struct.pack("<4sHBBII", b"FMPW", WIRE_VERSION,
                                KIND_CONTROL, 0, MAX_MESSAGE_BYTES, 0)
        + b"x" * 64,
    }


@pytest.mark.parametrize("kind", ["reduce_bomb", "garbage", "over_cap"])
def test_hostile_frames_raise_typed_errors(tmp_path, kind):
    sentinel = tmp_path / "pwned"
    wire = hostile_frames(sentinel)[kind]
    buffer = FrameBuffer()
    buffer.feed(wire)
    with pytest.raises(WireFormatError):
        list(buffer.pop_messages())
    a, b = socket.socketpair()
    try:
        a.sendall(wire)
        with pytest.raises(WireFormatError):
            recv_message(b)
    finally:
        a.close()
        b.close()
    assert not sentinel.exists()
    # the control: unpickling the spec, as protocol-4 clients did, runs it
    if kind == "reduce_bomb":
        pickle.loads(pickle.loads(wire[4:])[2]["spec"])
        assert sentinel.exists()


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
        wire = _wire(("err", 1, "payload"))
        a.sendall(wire[:len(wire) - 3])    # cut the frame short
        a.close()
        with pytest.raises(SocketClosedError):
            recv_message(b)
    finally:
        b.close()


# ----------------------------------------------------------------------
# every message round-trips; every mutant is the message or an error
# ----------------------------------------------------------------------
_STATE = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
#: the frame each frame-carrying op trails, and how its receiver reads it
_FRAMES = {
    "dispatch": (encode_dispatch(1, PruningPlan(ratio=0.0), _STATE, tau=2,
                                 hyper=TrainHyper(lr=0.1)),
                 decode_dispatch),
    "push_contribution": (encode_contribution(1, _STATE, train_loss=0.5,
                                              wall_time_s=0.1),
                          decode_contribution),
}
_U32 = st.integers(0, 2 ** 32 - 1)
_KWARG = (st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 63 - 1)
          | st.floats(allow_nan=False)
          | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                     max_size=4).map(tuple))


@st.composite
def _worker_specs(draw):
    rows = draw(st.integers(0, 4))
    scale = draw(st.floats(-1e3, 1e3, allow_nan=False))
    return WorkerSpec(
        worker_id=draw(_U32), seed=draw(st.integers(0, 2 ** 64 - 1)),
        shard_inputs=np.arange(2 * rows, dtype=draw(st.sampled_from(
            [np.float32, np.float64]))).reshape(rows, 2) * scale,
        shard_targets=np.arange(rows, dtype=draw(st.sampled_from(
            [np.int64, np.int32]))),
        batch_size=draw(_U32), num_samples=draw(_U32),
        jitter_sigma=draw(st.floats(allow_nan=False)),
        iterator_kind=draw(st.sampled_from(ITERATOR_KINDS)),
        device=DeviceProfile(
            draw(_U32), JETSON_TX2_MODES[draw(st.sampled_from(
                sorted(JETSON_TX2_MODES)))],
            draw(st.floats(allow_nan=False)), draw(st.text(max_size=4))),
    )


def _field(op: str, kind: str):
    return {
        "u32": _U32,
        "u32?": st.none() | _U32,
        "f64": st.floats(allow_nan=False),
        "text": st.text(max_size=40),
        "worker": _worker_specs(),
        "model": st.tuples(st.text(max_size=8),
                           st.dictionaries(st.text(max_size=6), _KWARG,
                                           max_size=4)),
        "frame": st.just(_FRAMES[op][0] if op in _FRAMES else b""),
    }[kind]


control_messages = st.sampled_from(sorted(CONTROL_OPS)).flatmap(
    lambda op: st.tuples(st.just(op), _U32,
                         *[_field(op, kind) for kind in CONTROL_OPS[op]]))


def _plain(message) -> tuple:
    """A message with every worker record spelled out, for ``==``."""
    return tuple(
        (field.worker_id, field.seed, field.batch_size, field.num_samples,
         field.jitter_sigma, field.iterator_kind, field.device,
         *((array.dtype.str, array.shape, array.tobytes())
           for array in (field.shard_inputs, field.shard_targets)))
        if isinstance(field, WorkerSpec) else field
        for field in message)


def _receive(wire: bytes) -> tuple:
    """What a receiver makes of ``wire``: the message, and the frame it
    trails decoded the way that frame's receiver decodes it."""
    message = decode_control(wire)
    if message[0] in _FRAMES:
        _FRAMES[message[0]][1](message[-1])
    return message


def _same_or_typed_error(wire: bytes, message) -> None:
    try:
        got = _receive(wire)
    except (WireFormatError, TransportError):
        return
    assert _plain(got) == _plain(message)


@given(message=control_messages, data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_mutant_is_the_message_or_a_typed_error(message, data):
    wire = _wire(message)
    assert _plain(_receive(wire)) == _plain(message)
    cut = data.draw(st.integers(0, len(wire) - 1), label="cut")
    _same_or_typed_error(wire[:cut], message)
    offset = data.draw(st.integers(0, len(wire) - 1), label="offset")
    mutant = bytearray(wire)
    mutant[offset] = data.draw(st.integers(0, 255), label="byte")
    _same_or_typed_error(bytes(mutant), message)


def test_unknown_ops_and_wrong_arity_are_refused_on_encode():
    with pytest.raises(WireFormatError):
        encode_control(("status", 1))
    with pytest.raises(WireFormatError):
        encode_control(("leave", 1))
    with pytest.raises(WireFormatError):
        encode_control(("registered", 1, object(), ("cnn", {})))


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
    server = _ToyServer(lambda m: [("idle", m[1] - 1), ("pong", m[1])])
    transport = _transport(server)
    try:
        assert transport.request(("heartbeat", 4, 1, 0.5)) == ("pong", 4)
    finally:
        transport.close()
        server.close()


def test_err_reply_raises_transport_error():
    server = _ToyServer(lambda m: [("err", m[1], "boom traceback")])
    transport = _transport(server)
    try:
        with pytest.raises(TransportError, match="boom"):
            transport.request(("leave", 1, 0))
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
            transport.request(("heartbeat", 1, 0, 0.0))
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
            transport.request(("heartbeat", 1, 0, 0.0))
    finally:
        transport.close()
        server.close()


def test_next_message_returns_in_arrival_order():
    server = _ToyServer(lambda m: [("idle", 100), ("drain", 200)])
    transport = _transport(server)
    try:
        transport.send(("pull_dispatch", 1, 0, 0.1))
        assert next_message(transport, timeout_s=5.0) == ("idle", 100)
        assert next_message(transport, timeout_s=5.0) == ("drain", 200)
        assert next_message(transport, timeout_s=0.05) is None
    finally:
        transport.close()
        server.close()
