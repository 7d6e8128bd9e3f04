"""Parallel execution runtime: remote workers behind a wire codec.

- :mod:`repro.runtime.codec` -- the versioned binary wire format:
  dispatches and contributions (pruning plans as packed ``uint32``
  indices, contiguous tensor payloads, sparse replies, CRC32 integrity,
  strict decode-time validation) and the service socket's control
  frames;
- :mod:`repro.runtime.pool` -- persistent worker processes built from
  :class:`~repro.runtime.pool.WorkerSpec` records so the child-side RNG
  streams are bitwise-identical to in-process execution, behind pipes
  that carry only frames, and the one body that trains a member flight
  on every plane (``train_dispatch``: derive the sub-model from a
  skeleton of the global model, train, reply);
- :mod:`repro.runtime.transport` -- the one wait loop every remote
  reply is awaited in (timeout, backoff-paced retry accounting, typed
  errors), and wall-clock straggler detection that composes with
  :mod:`repro.simulation.faults`;
- :mod:`repro.runtime.sockets` -- control-frame streams and the service
  client's request/reply channel;
- :mod:`repro.runtime.executor` -- the ``Engine``'s ``executor=`` seam:
  :class:`~repro.runtime.executor.SerialExecutor` (default, in process) and
  :class:`~repro.runtime.executor.RemoteExecutor` (the wire codec over a
  link: the pool's pipes, or the service's sockets).

The headline guarantee is **0-ULP parity**: a run with
``executor="process"`` produces bitwise-identical global states and a
byte-identical history JSON to the serial path (see DESIGN.md 3.5 and
``repro verify --executor process``).
"""

from repro.runtime.codec import (
    WIRE_VERSION,
    ContributionPayload,
    DispatchPayload,
    TrainHyper,
    WireFormatError,
    decode_contribution,
    decode_dispatch,
    encode_contribution,
    encode_dispatch,
)
from repro.runtime.executor import (
    Executor,
    RemoteExecutor,
    SerialExecutor,
    TrainResult,
    make_executor,
)
from repro.runtime.pool import ProcessPool, WorkerSpec
from repro.runtime.transport import (
    RetryPolicy,
    StragglerDetector,
    TransportError,
    TransportTimeoutError,
    WorkerCrashError,
)

__all__ = [
    "WIRE_VERSION",
    "ContributionPayload",
    "DispatchPayload",
    "Executor",
    "ProcessPool",
    "RemoteExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "StragglerDetector",
    "TrainHyper",
    "TrainResult",
    "TransportError",
    "TransportTimeoutError",
    "WireFormatError",
    "WorkerCrashError",
    "WorkerSpec",
    "decode_contribution",
    "decode_dispatch",
    "encode_contribution",
    "encode_dispatch",
    "make_executor",
]
