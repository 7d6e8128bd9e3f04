"""Versioned binary wire format: dispatches, contributions, control.

Every frame is little-endian and self-delimiting::

    magic b"FMPW" | version u16 | kind u8 | flags u8 | body | crc32 u32

``kind`` distinguishes the three frame types (PS -> worker dispatch,
worker -> PS contribution, and the service socket's control messages).
``flags`` describe the tensor payload (``FLAG_SPARSE``: sparse deltas,
contributions only; ``FLAG_QUANTIZED``: their quantized codes -- there
is no dense quantized layout), the reply profile a dispatch negotiates
(bits 2-3: ``exact``, ``sparse``, ``sparse+quantized``) and the
trailing RNG (``FLAG_RNG``, dispatches only) and stream
(``FLAG_STREAM``) records.  The CRC32 covers everything before the
trailer, so a flipped bit anywhere is caught before any payload is
interpreted; unknown flag bits are rejected, never ignored.

A **dispatch** body carries the worker id, the local-iteration budget,
the training hyper-parameters, the :class:`~repro.pruning.plan.
PruningPlan` (kept indices as ``uint32``), the dispatched sub-model
state, the generator state of each RNG-bearing module (the one
thing the receiver cannot derive from its skeleton and the plan) and
the worker's *stream record* (its worker/iterator PCG64 state and
epoch order and cursor), which makes a flight independent of the
receiver that trains it.  A **contribution** body carries the worker
id, sample count, training loss, receiver wall time, the trained state
-- dense, or a sparse block -- and the stream record, advanced.
DESIGN.md §3.5 gives every byte.

A sparse block ships, per tensor, the strictly increasing flat indices
where the trained state moved most (the top-k rule of
:func:`repro.fl.compression.top_k_sparsify`) and either the exact
trained values there (``sparse``) or quantized *delta* codes
(``sparse+quantized``, :mod:`repro.pruning.quantize`, the paper's
Section III-C).  A dispatch names only the profile: receivers reply
with :func:`encode_contribution`'s fixed keep fraction (0.25) and code
width (8 bits).  The receiver overlays the block onto the dispatched
base state it already holds.  Both sparse profiles are lossy, so the
engine's 0-ULP parity path never negotiates them.

A **control** frame is one service-socket message ``(op, seq,
*fields)``.  Its header adds the body's and the trailing frame's byte
counts, so a stream reader knows a frame's size from its first 16
bytes::

    magic | version u16 | kind u8 = 3 | flags u8 = 0 | body u32 | tail u32
    | op u8 | seq u32 | fields | crc32 u32 | tail

The op code is the op's index in :data:`CONTROL_OPS`, which also names
every field's kind; the CRC covers header and body.  The tail is the
dispatch or contribution frame a ``dispatch`` / ``push_contribution``
carries: it is written as it is, never copied into the control frame,
and its own CRC covers it when the receiver decodes it.

Decoding validates strictly -- sizes, CRC, magic, version, kind,
flags, op codes, dtype and layer-kind codes, index ranges and order,
quantization scales and codes, RNG and stream records, trailing bytes
-- and any violation is the typed :class:`WireFormatError`, never a
silent wrong decode.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.pruning.plan import LAYER_KINDS, LayerPrune, PruningPlan
from repro.pruning.quantize import quantize_array
from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile

__all__ = [
    "WIRE_VERSION",
    "KIND_DISPATCH",
    "KIND_CONTRIBUTION",
    "KIND_CONTROL",
    "CONTROL_OPS",
    "CONTROL_PREFIX",
    "MAX_MESSAGE_BYTES",
    "FLAG_QUANTIZED",
    "FLAG_SPARSE",
    "FLAG_RNG",
    "FLAG_STREAM",
    "WIRE_PROFILES",
    "WireFormatError",
    "TrainHyper",
    "DispatchPayload",
    "ContributionPayload",
    "SparseTensor",
    "StreamRecord",
    "encode_dispatch",
    "decode_dispatch",
    "encode_contribution",
    "decode_contribution",
    "control_frame_size",
    "encode_control",
    "decode_control",
]

MAGIC = b"FMPW"
WIRE_VERSION = 3

KIND_DISPATCH = 1
KIND_CONTRIBUTION = 2
KIND_CONTROL = 3

FLAG_QUANTIZED = 0x01
FLAG_SPARSE = 0x02
FLAG_RNG = 0x10
FLAG_STREAM = 0x20

#: negotiated wire profiles, in ascending-compression order
WIRE_PROFILES = ("exact", "sparse", "sparse+quantized")
_PROFILE_CODES = {name: code for code, name in enumerate(WIRE_PROFILES)}
_PROFILE_SHIFT = 2
_PROFILE_MASK = 0x0C
_KNOWN_FLAGS = (FLAG_QUANTIZED | FLAG_SPARSE | _PROFILE_MASK | FLAG_RNG
                | FLAG_STREAM)

#: wire dtype code -> numpy little-endian dtype string (the integer
#: codes carry a worker record's shard arrays)
_DTYPE_CODES: Dict[int, str] = {0: "<f4", 1: "<f8", 2: "<i8", 3: "<i4"}
_DTYPE_TO_CODE = {np.dtype(code): index
                  for index, code in _DTYPE_CODES.items()}

_HEADER = struct.Struct("<4sHBB")
_CRC = struct.Struct("<I")
#: a control frame's header: the common one, then body and tail sizes
_CONTROL_HEADER = struct.Struct("<4sHBBII")
#: bytes a stream reader needs to know a control frame's size
CONTROL_PREFIX = _CONTROL_HEADER.size
#: hard cap on one control frame (a corrupt or hostile size must fail
#: loudly, not allocate gigabytes)
MAX_MESSAGE_BYTES = 1 << 30

#: every service-socket op, in op-code order: the kind of each field
#: after ``seq`` ("frame", the trailing dispatch/contribution frame,
#: comes last).  ``register`` carries the protocol version and the
#: wanted worker id (None: any free slot), ``registered`` the worker
#: record and the model record.
CONTROL_OPS: Dict[str, Tuple[str, ...]] = {
    "register": ("u32", "u32?"),
    "registered": ("worker", "model"),
    "leave": ("u32",),
    "bye": (),
    "pull_dispatch": ("u32", "f64"),          # worker id, hold s
    "dispatch": ("u32", "frame"),             # dispatch seq, frame
    "idle": (),
    "drain": (),
    "push_contribution": ("u32", "u32", "frame"),
    "accepted": (),
    "heartbeat": ("u32", "f64"),              # worker id, sent at
    "pong": (),
    "err": ("text",),
}
_OP_NAMES = tuple(CONTROL_OPS)
_OP_CODES = {name: code for code, name in enumerate(_OP_NAMES)}
#: one module's PCG64 state: state u128, inc u128, has_uint32, uinteger
_PCG64 = "16s16sBI"
_PCG64_WIDTH = struct.calcsize("<" + _PCG64)


class WireFormatError(ValueError):
    """A frame failed decode-time validation (truncated, corrupt,
    version-mismatched, or structurally invalid)."""


@dataclass(frozen=True)
class TrainHyper:
    """The local-SGD hyper-parameters a dispatch ships to its worker."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    prox_mu: float = 0.0
    clip_norm: Optional[float] = None


@dataclass
class StreamRecord:
    """One worker's data-stream position: its worker/iterator generator
    state and a ``BatchIterator``'s epoch order and cursor."""

    worker_id: int
    rng: dict
    order: Optional[np.ndarray] = None
    cursor: int = 0


@dataclass
class DispatchPayload:
    """A decoded dispatch frame."""

    worker_id: int
    tau: int
    hyper: TrainHyper
    plan: PruningPlan
    state: Dict[str, np.ndarray]
    #: profile the contribution reply must be encoded with
    reply_profile: str = "exact"
    #: module path -> ``bit_generator.state`` of its RNG (see
    #: :meth:`repro.nn.module.Module.rng_states`)
    module_rngs: Dict[str, dict] = field(default_factory=dict)
    #: where the worker's data stream starts (None: the receiver's own)
    stream: Optional[StreamRecord] = None


@dataclass
class SparseTensor:
    """One tensor of a sparse contribution block.

    ``indices`` are flat C-order positions into the tensor.  Exactly
    one of ``values`` (exact trained values, ``sparse`` profile) and
    ``codes``/``scale`` (quantized deltas, ``sparse+quantized``) is
    populated.
    """

    shape: Tuple[int, ...]
    dtype: np.dtype
    indices: np.ndarray
    values: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None
    scale: Optional[float] = None

    def overlay(self, base: np.ndarray) -> np.ndarray:
        """Dense tensor: ``base`` with this block applied on top."""
        base = np.asarray(base)
        if tuple(base.shape) != tuple(self.shape):
            raise WireFormatError(
                f"sparse overlay base shape {tuple(base.shape)} does not "
                f"match wire shape {tuple(self.shape)}"
            )
        out = base.astype(self.dtype, copy=True)
        flat = out.reshape(-1)
        if self.values is not None:
            flat[self.indices] = self.values
        else:
            flat[self.indices] = (
                flat[self.indices].astype(np.float64)
                + self.codes.astype(np.float64) * self.scale
            ).astype(self.dtype)
        return out


@dataclass
class ContributionPayload:
    """A decoded contribution frame.

    Dense frames populate ``state`` directly.  Sparse frames populate
    ``sparse`` instead; call :meth:`materialise` with the dispatched
    base state to obtain the dense trained state.
    """

    worker_id: int
    num_samples: int
    train_loss: float
    wall_time_s: float
    state: Optional[Dict[str, np.ndarray]] = None
    sparse: Optional[Dict[str, SparseTensor]] = field(
        default=None, repr=False)
    profile: str = "exact"
    #: where training left the worker's data stream
    stream: Optional[StreamRecord] = None

    def materialise(
        self, base: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Dense trained state; sparse frames need the dispatched base.

        The base is never mutated -- every tensor is copied before the
        sparse block is overlaid (callers routinely share one base dict
        across a whole cohort).
        """
        if self.sparse is None:
            return self.state
        if base is None:
            raise WireFormatError(
                f"a {self.profile!r} contribution needs the dispatched "
                f"base state to materialise"
            )
        missing = [key for key in self.sparse if key not in base]
        if missing:
            raise WireFormatError(
                f"sparse contribution references tensors absent from the "
                f"base state: {missing[:3]}"
            )
        return {
            key: entry.overlay(base[key])
            for key, entry in self.sparse.items()
        }


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class _Writer:
    def __init__(self) -> None:
        self._parts = [b""]  # placeholder for the header

    def header(self, kind: int, flags: int) -> None:
        self._parts[0] = _HEADER.pack(MAGIC, WIRE_VERSION, kind, flags)

    def pack(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def string(self, text: str, width: str = "H") -> None:
        data = text.encode("utf-8")
        if len(data) >= 1 << (8 * struct.calcsize(width)):
            raise WireFormatError(f"name too long for the wire: {text!r}")
        self.pack(width, len(data))
        self._parts.append(data)

    def array(self, values: np.ndarray, dtype: str) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def finish(self) -> bytes:
        body = b"".join(self._parts)
        return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class _Reader:
    """Bounds-checked sequential reader over one frame's body."""

    def __init__(self, buf: memoryview) -> None:
        self._buf = buf
        self._pos = 0

    def take(self, count: int) -> memoryview:
        end = self._pos + count
        if count < 0 or end > len(self._buf):
            raise WireFormatError(
                f"truncated frame: wanted {count} byte(s) at offset "
                f"{self._pos}, {len(self._buf) - self._pos} available"
            )
        view = self._buf[self._pos:end]
        self._pos = end
        return view

    def unpack(self, fmt: str) -> Tuple:
        layout = struct.Struct("<" + fmt)
        return layout.unpack(self.take(layout.size))

    def string(self, width: str = "H") -> str:
        (length,) = self.unpack(width)
        try:
            return bytes(self.take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"invalid utf-8 name: {exc}") from exc

    def array(self, dtype: str, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        view = self.take(count * itemsize)
        return np.frombuffer(view, dtype=dtype).copy()

    def expect_exhausted(self) -> None:
        if self._pos != len(self._buf):
            raise WireFormatError(
                f"trailing garbage: {len(self._buf) - self._pos} "
                f"unread byte(s) after the body"
            )


# ----------------------------------------------------------------------
# plan block
# ----------------------------------------------------------------------
def _write_plan(writer: _Writer, plan: PruningPlan) -> None:
    layers = list(plan.items())
    writer.pack("I", len(layers))
    for name, entry in layers:
        writer.string(name)
        writer.pack("B", LAYER_KINDS.index(entry.kind))
        writer.pack("II", int(entry.out_full), int(entry.kept_out.size))
        writer.array(entry.kept_out, "<u4")
        if entry.kept_in is None:
            writer.pack("B", 0)
        else:
            writer.pack("B", 1)
            writer.pack("II", int(entry.in_full), int(entry.kept_in.size))
            writer.array(entry.kept_in, "<u4")


def _read_kept(reader: _Reader, full: int, count: int,
               axis: str, layer: str) -> np.ndarray:
    if count > full:
        raise WireFormatError(
            f"layer {layer!r}: {count} kept {axis} indices exceed the "
            f"full size {full}"
        )
    kept = reader.array("<u4", count).astype(np.intp)
    if count and int(kept.max()) >= full:
        raise WireFormatError(
            f"layer {layer!r}: kept {axis} index {int(kept.max())} out of "
            f"range for full size {full}"
        )
    return kept


def _read_plan(reader: _Reader, ratio: float) -> PruningPlan:
    (num_layers,) = reader.unpack("I")
    plan = PruningPlan(ratio=ratio)
    for _ in range(num_layers):
        name = reader.string()
        (kind_index,) = reader.unpack("B")
        if kind_index >= len(LAYER_KINDS):
            raise WireFormatError(
                f"layer {name!r}: unknown layer-kind code {kind_index}"
            )
        out_full, out_count = reader.unpack("II")
        kept_out = _read_kept(reader, out_full, out_count, "output", name)
        (has_in,) = reader.unpack("B")
        kept_in = None
        in_full = None
        if has_in:
            in_full, in_count = reader.unpack("II")
            kept_in = _read_kept(reader, in_full, in_count, "input", name)
        try:
            plan.add(name, LayerPrune(
                kind=LAYER_KINDS[kind_index], kept_out=kept_out,
                out_full=out_full, kept_in=kept_in, in_full=in_full,
            ))
        except ValueError as exc:
            raise WireFormatError(f"invalid plan entry: {exc}") from exc
    return plan


# ----------------------------------------------------------------------
# tensor block
# ----------------------------------------------------------------------
def _write_tensors(writer: _Writer, state: Dict[str, np.ndarray],
                   payload) -> None:
    """Per tensor: its name, dtype code and shape, then whatever
    ``payload(key, value, wire dtype)`` writes."""
    writer.pack("I", len(state))
    for key, value in state.items():
        value = np.asarray(value)
        code = _DTYPE_TO_CODE.get(value.dtype)
        if code is None:
            raise WireFormatError(
                f"tensor {key!r}: unsupported wire dtype {value.dtype}"
            )
        writer.string(key)
        writer.pack(f"BB{value.ndim}I", code, value.ndim, *value.shape)
        payload(key, value, _DTYPE_CODES[code])


def _read_tensors(reader: _Reader, payload) -> Dict[str, object]:
    """Name -> ``payload(key, shape, element count, wire dtype)`` per
    tensor record :func:`_write_tensors` wrote."""
    (num_tensors,) = reader.unpack("I")
    out: Dict[str, object] = {}
    for _ in range(num_tensors):
        key = reader.string()
        if key in out:
            raise WireFormatError(f"duplicate tensor {key!r}")
        code, ndim = reader.unpack("BB")
        if code not in _DTYPE_CODES:
            raise WireFormatError(
                f"tensor {key!r}: unknown dtype code {code}"
            )
        shape = reader.unpack(f"{ndim}I")
        out[key] = payload(key, shape, math.prod(shape), _DTYPE_CODES[code])
    return out


def _write_state(writer: _Writer, state: Dict[str, np.ndarray]) -> None:
    _write_tensors(writer, state, lambda key, value, dtype:
                   writer.array(value, dtype))


def _read_state(reader: _Reader) -> Dict[str, np.ndarray]:
    return _read_tensors(reader, lambda key, shape, count, dtype:
                         reader.array(dtype, count).reshape(shape))


# ----------------------------------------------------------------------
# sparse delta block (contribution frames)
# ----------------------------------------------------------------------
def _sparse_select(state: Dict[str, np.ndarray],
                   base: Dict[str, np.ndarray],
                   keep_fraction: float) -> Dict[str, np.ndarray]:
    """Flat C-order indices of the top-k moved positions, per tensor.

    Reuses the FlexCom top-k selection (global magnitude threshold over
    the concatenated delta, deterministic positional tie-break) so the
    wire's kept count agrees with the engine's upload pricing.
    """
    # function-level import: repro.fl pulls in the engine, which imports
    # this module -- a top-level import would be a cycle
    from repro.fl.compression import top_k_sparsify

    if set(state) != set(base):
        raise WireFormatError(
            f"sparse encode: trained and base states carry different "
            f"tensors ({sorted(set(state) ^ set(base))[:3]})"
        )
    delta = {}
    for key, value in state.items():
        value = np.asarray(value)
        anchor = np.asarray(base[key])
        if value.shape != anchor.shape:
            raise WireFormatError(
                f"sparse encode: tensor {key!r} shape {value.shape} does "
                f"not match its base {anchor.shape}"
            )
        delta[key] = value.astype(np.float64) - anchor.astype(np.float64)
    sparsified, _ = top_k_sparsify(delta, keep_fraction)
    return {
        key: np.flatnonzero(sparsified[key].reshape(-1))
        for key in state
    }


def _write_sparse_state(writer: _Writer, state: Dict[str, np.ndarray],
                        base: Dict[str, np.ndarray], *,
                        keep_fraction: float,
                        quantize_bits: Optional[int]) -> None:
    if not 0.0 < keep_fraction <= 1.0:
        raise WireFormatError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    kept = _sparse_select(state, base, keep_fraction)

    def payload(key: str, value: np.ndarray, dtype: str) -> None:
        indices = kept[key]
        writer.pack("I", int(indices.size))
        writer.array(indices, "<u4")
        if quantize_bits is None:
            writer.array(value.reshape(-1)[indices], dtype)
            return
        deltas = (
            value.reshape(-1)[indices].astype(np.float64)
            - np.asarray(base[key]).reshape(-1)[indices].astype(np.float64)
        )
        codes, scale = quantize_array(deltas, quantize_bits)
        writer.pack("Bd", quantize_bits, scale)
        writer.array(codes, "<i2")

    _write_tensors(writer, state, payload)


def _read_sparse_state(reader: _Reader,
                       quantized: bool) -> Dict[str, SparseTensor]:
    def payload(key: str, shape: Tuple[int, ...], count: int,
                dtype: str) -> SparseTensor:
        (kept,) = reader.unpack("I")
        if kept > count:
            raise WireFormatError(
                f"tensor {key!r}: {kept} sparse indices exceed the "
                f"tensor's {count} element(s)"
            )
        indices = reader.array("<u4", kept).astype(np.intp)
        if kept and int(indices[-1]) >= count:
            raise WireFormatError(
                f"tensor {key!r}: sparse index {int(indices[-1])} out "
                f"of range for {count} element(s)"
            )
        if kept > 1 and not np.all(np.diff(indices) > 0):
            raise WireFormatError(
                f"tensor {key!r}: sparse indices are not strictly "
                f"increasing"
            )
        entry = SparseTensor(shape=shape, dtype=np.dtype(dtype),
                             indices=indices)
        if not quantized:
            entry.values = reader.array(dtype, kept)
            return entry
        # quantize_array's scales are finite and > 0 by construction:
        # anything else is corruption, never dequantized to NaN/Inf
        bits, scale = reader.unpack("Bd")
        if not 2 <= bits <= 16:
            raise WireFormatError(
                f"tensor {key!r}: quantization bits {bits} out of range"
            )
        if not (np.isfinite(scale) and scale > 0.0):
            raise WireFormatError(
                f"tensor {key!r}: quantization scale {scale!r} out of "
                f"range (must be finite and > 0)"
            )
        entry.codes = reader.array("<i2", kept)
        levels = 2 ** (bits - 1) - 1
        if kept and int(np.abs(entry.codes).max()) > levels:
            raise WireFormatError(
                f"tensor {key!r}: quantization code "
                f"{int(np.abs(entry.codes).max())} exceeds the "
                f"{levels}-level cap"
            )
        entry.scale = float(scale)
        return entry

    return _read_tensors(reader, payload)


# ----------------------------------------------------------------------
# per-module RNG record (dispatch frames)
# ----------------------------------------------------------------------
def _write_rngs(writer: _Writer, module_rngs: Dict[str, dict]) -> None:
    writer.pack("H", len(module_rngs))
    for path, state in module_rngs.items():
        writer.string(path)
        _write_pcg64(writer, state, f"module {path!r}")


def _read_rngs(reader: _Reader) -> Dict[str, dict]:
    (count,) = reader.unpack("H")
    if count == 0:
        raise WireFormatError("FLAG_RNG set on an empty RNG record")
    module_rngs: Dict[str, dict] = {}
    for _ in range(count):
        path = reader.string()
        if path in module_rngs:
            raise WireFormatError(f"duplicate RNG record for {path!r}")
        module_rngs[path] = _read_pcg64(reader, f"module {path!r}")
    return module_rngs


def _write_pcg64(writer: _Writer, state: dict, owner: str) -> None:
    if state.get("bit_generator") != "PCG64":
        raise WireFormatError(
            f"{owner}: unsupported bit generator "
            f"{state.get('bit_generator')!r} (the wire carries PCG64)"
        )
    writer.pack("B" + _PCG64, _PCG64_WIDTH,
                state["state"]["state"].to_bytes(16, "little"),
                state["state"]["inc"].to_bytes(16, "little"),
                state["has_uint32"], state["uinteger"])


def _read_pcg64(reader: _Reader, owner: str) -> dict:
    (width,) = reader.unpack("B")
    if width != _PCG64_WIDTH:
        raise WireFormatError(
            f"{owner}: RNG state is {width} byte(s) wide, "
            f"PCG64 needs {_PCG64_WIDTH}"
        )
    state, inc, has_uint32, uinteger = reader.unpack(_PCG64)
    return {
        "bit_generator": "PCG64",
        "state": {"state": int.from_bytes(state, "little"),
                  "inc": int.from_bytes(inc, "little")},
        "has_uint32": has_uint32, "uinteger": uinteger,
    }


def _write_stream(writer: _Writer, stream: StreamRecord) -> None:
    order = () if stream.order is None else stream.order
    writer.pack("I", stream.worker_id)
    _write_pcg64(writer, stream.rng, f"worker {stream.worker_id}")
    writer.pack("II", len(order), stream.cursor)
    writer.array(order, "<u4")


def _read_stream(reader: _Reader) -> StreamRecord:
    (worker_id,) = reader.unpack("I")
    rng = _read_pcg64(reader, f"worker {worker_id}'s stream")
    count, cursor = reader.unpack("II")
    order = reader.array("<u4", count).astype(np.intp)
    if cursor > count or not np.array_equal(np.sort(order),
                                            np.arange(count)):
        raise WireFormatError(
            f"worker {worker_id}: stream cursor {cursor} into an order "
            f"that must be a permutation of range({count})"
        )
    return StreamRecord(worker_id, rng, order if count else None, cursor)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def _clip_to_wire(clip_norm: Optional[float]) -> float:
    return float("nan") if clip_norm is None else float(clip_norm)


def _clip_from_wire(value: float) -> Optional[float]:
    return None if np.isnan(value) else float(value)


def encode_dispatch(worker_id: int, plan: PruningPlan,
                    state: Dict[str, np.ndarray], *, tau: int,
                    hyper: TrainHyper, reply_profile: str = "exact",
                    module_rngs: Optional[Dict[str, dict]] = None,
                    stream: Optional[StreamRecord] = None,
                    ) -> bytes:
    """Encode one PS -> worker dispatch frame.

    ``reply_profile`` names how the worker must encode its contribution
    (the sparse profiles at :func:`encode_contribution`'s fixed keep
    fraction and code width).  ``module_rngs`` ships the generator
    state of the sub-model's RNG-bearing modules, ``stream`` the
    worker's data-stream position.
    """
    if reply_profile not in _PROFILE_CODES:
        raise WireFormatError(
            f"unknown wire profile {reply_profile!r} "
            f"(expected one of {WIRE_PROFILES})"
        )
    writer = _Writer()
    flags = _PROFILE_CODES[reply_profile] << _PROFILE_SHIFT
    if module_rngs:
        flags |= FLAG_RNG
    if stream is not None:
        flags |= FLAG_STREAM
    writer.header(KIND_DISPATCH, flags)
    writer.pack("II", worker_id, tau)
    writer.pack("ddddd", hyper.lr, hyper.momentum, hyper.weight_decay,
                hyper.prox_mu, _clip_to_wire(hyper.clip_norm))
    writer.pack("d", float(plan.ratio))
    _write_plan(writer, plan)
    _write_state(writer, state)
    if module_rngs:
        _write_rngs(writer, module_rngs)
    if stream is not None:
        _write_stream(writer, stream)
    return writer.finish()


def encode_contribution(worker_id: int, state: Dict[str, np.ndarray], *,
                        train_loss: float, wall_time_s: float,
                        num_samples: int = 1,
                        quantize_bits: Optional[int] = None,
                        profile: str = "exact",
                        base: Optional[Dict[str, np.ndarray]] = None,
                        keep_fraction: float = 0.25,
                        stream: Optional[StreamRecord] = None) -> bytes:
    """Encode one worker -> PS contribution frame.

    Sparse profiles need ``base`` -- the dispatched state the receiver
    also holds -- to pick the top-k moved positions (and, for
    ``sparse+quantized``, to form the delta codes).  ``keep_fraction``
    and ``quantize_bits`` (the delta code width) apply to the sparse
    profiles only.
    """
    if profile not in _PROFILE_CODES:
        raise WireFormatError(
            f"unknown wire profile {profile!r} "
            f"(expected one of {WIRE_PROFILES})"
        )
    writer = _Writer()
    if profile == "exact":
        flags = 0
    else:
        if base is None:
            raise WireFormatError(
                f"a {profile!r} contribution needs the dispatched base "
                f"state to encode"
            )
        flags = FLAG_SPARSE
        if profile == "sparse+quantized":
            flags |= FLAG_QUANTIZED
    if stream is not None:
        flags |= FLAG_STREAM
    writer.header(KIND_CONTRIBUTION, flags)
    writer.pack("II", worker_id, num_samples)
    writer.pack("dd", float(train_loss), float(wall_time_s))
    if profile == "exact":
        _write_state(writer, state)
    else:
        _write_sparse_state(
            writer, state, base, keep_fraction=keep_fraction,
            quantize_bits=(
                (8 if quantize_bits is None else quantize_bits)
                if profile == "sparse+quantized" else None
            ),
        )
    if stream is not None:
        _write_stream(writer, stream)
    return writer.finish()


def _check_header(magic: bytes, version: int, kind: int, flags: int,
                  expected_kind: int, known_flags: int) -> None:
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this codec speaks "
            f"{WIRE_VERSION})"
        )
    if kind != expected_kind:
        raise WireFormatError(
            f"wrong frame kind {kind} (expected {expected_kind})"
        )
    if flags & ~known_flags:
        raise WireFormatError(
            f"unknown flag bits {flags & ~known_flags:#04x} set "
            f"(flags {flags:#04x})"
        )


def _check_crc(covered, stored: bytes) -> None:
    (stored_crc,) = _CRC.unpack(stored)
    actual_crc = zlib.crc32(covered) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise WireFormatError(
            f"CRC mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )


def _open_frame(frame: bytes, expected_kind: int) -> Tuple[_Reader, int]:
    if len(frame) < _HEADER.size + _CRC.size:
        raise WireFormatError(
            f"frame too short: {len(frame)} byte(s), need at least "
            f"{_HEADER.size + _CRC.size}"
        )
    _check_crc(frame[:-_CRC.size], frame[-_CRC.size:])
    _check_header(*_HEADER.unpack(frame[:_HEADER.size]), expected_kind,
                  _KNOWN_FLAGS)
    flags = frame[_HEADER.size - 1]
    if flags & FLAG_QUANTIZED and not flags & FLAG_SPARSE:
        raise WireFormatError(
            "FLAG_QUANTIZED without FLAG_SPARSE: there is no dense "
            "quantized layout"
        )
    body = memoryview(frame)[_HEADER.size:-_CRC.size]
    return _Reader(body), flags


def decode_dispatch(frame: bytes) -> DispatchPayload:
    """Decode and validate one dispatch frame."""
    reader, flags = _open_frame(frame, KIND_DISPATCH)
    if flags & FLAG_SPARSE:
        raise WireFormatError(
            "dispatch frames cannot be sparse (FLAG_SPARSE set)"
        )
    profile_code = (flags & _PROFILE_MASK) >> _PROFILE_SHIFT
    if profile_code >= len(WIRE_PROFILES):
        raise WireFormatError(
            f"unknown reply-profile code {profile_code}"
        )
    reply_profile = WIRE_PROFILES[profile_code]
    worker_id, tau = reader.unpack("II")
    lr, momentum, weight_decay, prox_mu, clip = reader.unpack("ddddd")
    (ratio,) = reader.unpack("d")
    plan = _read_plan(reader, ratio)
    state = _read_state(reader)
    module_rngs = _read_rngs(reader) if flags & FLAG_RNG else {}
    stream = _read_stream(reader) if flags & FLAG_STREAM else None
    reader.expect_exhausted()
    return DispatchPayload(
        worker_id=worker_id, tau=tau,
        hyper=TrainHyper(lr=lr, momentum=momentum,
                         weight_decay=weight_decay, prox_mu=prox_mu,
                         clip_norm=_clip_from_wire(clip)),
        plan=plan, state=state, reply_profile=reply_profile,
        module_rngs=module_rngs, stream=stream,
    )


def decode_contribution(frame: bytes,
                        expect_profile: Optional[str] = None,
                        ) -> ContributionPayload:
    """Decode and validate one contribution frame.

    ``expect_profile`` enforces the negotiated reply profile: a frame
    whose flags disagree is rejected rather than trusted.
    """
    reader, flags = _open_frame(frame, KIND_CONTRIBUTION)
    if flags & (_PROFILE_MASK | FLAG_RNG):
        raise WireFormatError(
            "contribution frames must not carry reply-profile or RNG bits"
        )
    if flags & FLAG_SPARSE:
        profile = (
            "sparse+quantized" if flags & FLAG_QUANTIZED else "sparse"
        )
    else:
        profile = "exact"
    if expect_profile is not None and profile != expect_profile:
        raise WireFormatError(
            f"profile mismatch: frame is {profile!r}, negotiated "
            f"{expect_profile!r}"
        )
    worker_id, num_samples = reader.unpack("II")
    train_loss, wall_time_s = reader.unpack("dd")
    if profile == "exact":
        state = _read_state(reader)
        sparse = None
    else:
        state = None
        sparse = _read_sparse_state(
            reader, bool(flags & FLAG_QUANTIZED)
        )
    stream = _read_stream(reader) if flags & FLAG_STREAM else None
    reader.expect_exhausted()
    return ContributionPayload(
        worker_id=worker_id, num_samples=num_samples,
        train_loss=train_loss, wall_time_s=wall_time_s, state=state,
        sparse=sparse, profile=profile, stream=stream,
    )


# ----------------------------------------------------------------------
# control frames (the service socket)
# ----------------------------------------------------------------------
def _write_worker(writer: _Writer, spec) -> None:
    """A :class:`~repro.runtime.pool.WorkerSpec` without its runtime
    state (every dispatch carries the stream record)."""
    device = spec.device
    if JETSON_TX2_MODES.get(device.mode.index) != device.mode:
        raise WireFormatError(f"{device.mode} is no Table II row")
    writer.pack("IQIIdIBd", spec.worker_id, spec.seed, spec.batch_size,
                spec.num_samples, spec.jitter_sigma, device.device_id,
                device.mode.index, device.bandwidth_bps)
    writer.string(spec.iterator_kind)
    writer.string(device.cluster)
    _write_state(writer, {"inputs": spec.shard_inputs,
                          "targets": spec.shard_targets})


def _read_worker(reader: _Reader):
    # function-level import: repro.runtime.pool imports this module
    from repro.runtime.pool import WorkerSpec

    (worker_id, seed, batch_size, num_samples, jitter, device_id, mode,
     bandwidth) = reader.unpack("IQIIdIBd")
    iterator_kind, cluster = reader.string(), reader.string()
    shard = _read_state(reader)
    if mode not in JETSON_TX2_MODES or set(shard) != {"inputs", "targets"}:
        raise WireFormatError(
            f"worker record {worker_id}: computing mode {mode}, shard "
            f"arrays {sorted(shard)}"
        )
    try:
        return WorkerSpec(
            worker_id=worker_id, seed=seed, shard_inputs=shard["inputs"],
            shard_targets=shard["targets"], batch_size=batch_size,
            device=DeviceProfile(device_id, JETSON_TX2_MODES[mode],
                                 bandwidth, cluster),
            jitter_sigma=jitter, num_samples=num_samples,
            iterator_kind=iterator_kind,
        )
    except ValueError as exc:
        raise WireFormatError(f"worker record {worker_id}: {exc}") from exc


#: the scalar kwargs a registry builder takes: type, struct format
#: (value codes 0-3; an integer tuple is 4)
_SCALARS = ((type(None), ""), (bool, "?"), (int, "q"), (float, "d"))


def _write_model(writer: _Writer, record: Tuple[str, dict]) -> None:
    """A registry model: its name and builder kwargs."""
    name, kwargs = record
    writer.string(name)
    writer.pack("H", len(kwargs))
    for key, value in kwargs.items():
        writer.string(key)
        value = value.item() if isinstance(value, np.generic) else value
        if isinstance(value, (list, tuple)):
            writer.pack(f"BH{len(value)}q", 4, len(value), *value)
        else:
            code = [kind for kind, _ in _SCALARS].index(type(value))
            writer.pack("B" + _SCALARS[code][1], code,
                        *([] if value is None else [value]))


def _read_model(reader: _Reader) -> Tuple[str, dict]:
    name = reader.string()
    (count,) = reader.unpack("H")
    kwargs = {}
    for _ in range(count):
        key = reader.string()
        (code,) = reader.unpack("B")
        if code == 0:
            kwargs[key] = None
        elif code < len(_SCALARS):
            (kwargs[key],) = reader.unpack(_SCALARS[code][1])
        elif code == 4:
            (length,) = reader.unpack("H")
            kwargs[key] = reader.unpack(f"{length}q")
        else:
            raise WireFormatError(
                f"model kwarg {key!r}: unknown value type code {code}"
            )
    return name, kwargs


def _read_optional_id(reader: _Reader) -> Optional[int]:
    present, value = reader.unpack("?I")
    return value if present else None


#: field kind -> (write, read)
_FIELDS = {
    "u32": (lambda writer, value: writer.pack("I", value),
            lambda reader: reader.unpack("I")[0]),
    "u32?": (lambda writer, value: writer.pack("?I", value is not None,
                                                value or 0),
             _read_optional_id),
    "f64": (lambda writer, value: writer.pack("d", value),
            lambda reader: reader.unpack("d")[0]),
    "text": (lambda writer, value: writer.string(value, "I"),
             lambda reader: reader.string("I")),
    "worker": (_write_worker, _read_worker),
    "model": (_write_model, _read_model),
}


def encode_control(message: Tuple) -> Tuple[bytes, memoryview]:
    """Encode one service-socket message ``(op, seq, *fields)``.

    Returns the control frame and the trailing frame it announces (empty
    unless the op carries one): write both, in order, and the trailing
    frame is never copied.
    """
    op, seq, *fields = message
    kinds = CONTROL_OPS.get(op)
    if kinds is None or len(fields) != len(kinds):
        raise WireFormatError(
            f"no control op {op!r} with {len(fields)} field(s)"
        )
    writer = _Writer()
    tail = memoryview(b"")
    try:
        writer.pack("BI", _OP_CODES[op], seq)
        for kind, value in zip(kinds, fields):
            if kind == "frame":
                tail = memoryview(value)
            else:
                _FIELDS[kind][0](writer, value)
    except (struct.error, TypeError, ValueError, AttributeError) as exc:
        raise WireFormatError(f"unencodable {op!r} message: {exc}") from exc
    body = sum(len(part) for part in writer._parts)
    writer._parts[0] = _CONTROL_HEADER.pack(MAGIC, WIRE_VERSION,
                                            KIND_CONTROL, 0, body, tail.nbytes)
    return writer.finish(), tail


def control_frame_size(prefix) -> int:
    """Bytes of the control frame whose first :data:`CONTROL_PREFIX`
    bytes are ``prefix``: a :class:`WireFormatError` if they start no
    valid control frame or one over :data:`MAX_MESSAGE_BYTES`."""
    *header, body, tail = _CONTROL_HEADER.unpack_from(prefix)
    _check_header(*header, KIND_CONTROL, 0)
    size = CONTROL_PREFIX + body + _CRC.size + tail
    if size > MAX_MESSAGE_BYTES:
        raise WireFormatError(
            f"control frame of {size} bytes is over the "
            f"{MAX_MESSAGE_BYTES}-byte cap"
        )
    return size


def decode_control(frame) -> Tuple:
    """Decode and validate exactly one control frame (any bytes-like
    object) into ``(op, seq, *fields)``; a trailing frame is copied out
    as ``bytes`` and checked only when it is itself decoded."""
    if len(frame) < CONTROL_PREFIX:
        raise WireFormatError(
            f"control frame too short: {len(frame)} byte(s)")
    size = control_frame_size(frame)
    if len(frame) != size:
        raise WireFormatError(
            f"control frame of {len(frame)} byte(s) announces {size}")
    view = memoryview(frame)
    head_end = size - _CONTROL_HEADER.unpack_from(frame)[-1] - _CRC.size
    _check_crc(view[:head_end], view[head_end:head_end + _CRC.size])
    reader = _Reader(view[CONTROL_PREFIX:head_end])
    code, seq = reader.unpack("BI")
    if code >= len(_OP_NAMES):
        raise WireFormatError(f"unknown control op code {code}")
    op = _OP_NAMES[code]
    kinds = CONTROL_OPS[op]
    fields = [bytes(view[head_end + _CRC.size:]) if kind == "frame"
              else _FIELDS[kind][1](reader) for kind in kinds]
    reader.expect_exhausted()
    if size > head_end + _CRC.size and "frame" not in kinds:
        raise WireFormatError(f"a {op!r} message carries no frame")
    return (op, seq, *fields)
