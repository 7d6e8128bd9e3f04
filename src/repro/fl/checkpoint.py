"""Checkpoint/resume: byte-identical continuation of a federated run.

A checkpoint snapshots everything a round depends on -- the engine's
RNG streams (``master_rng`` / ``extract_rng`` / churn / sampling, via
``bit_generator.state``), the runtime state of every worker the run
touched (iterator/worker generator position, timing-jitter generator,
epoch permutation and cursor; an untouched worker is its seed), the
strategy object wholesale (for FedMP each E-UCB agent's partition tree,
``_RegionStats`` and pending play), the error-feedback memories, the
global model state with any rng-bearing module generators, the
simulated clock, the training history, and the scheduler's outstanding
:class:`~repro.fl.schedulers.base.DispatchQueue` (in-flight completion
events).  Everything is serialised in ONE pickle so shared-object
identity survives: a cached sub-model template, the cohort that points
at it, and the queued dispatches that point at the cohort come back as
the same graph, not as divergent copies.

The on-disk format is versioned: ``MAGIC + little-endian uint32
format version + uint32 CRC-32 + pickle payload``, written atomically
(same-directory temp file + flush + fsync + ``os.replace``) so a kill
mid-write can never leave a truncated checkpoint behind.  The loader
checks the header and the CRC before unpickling and rejects unknown
versions with a typed :class:`CheckpointVersionError`.

What is deliberately NOT captured: telemetry (traces, metric
counters) restarts empty in the resumed process, and wall-clock hook
measurements (``extras["wall_time_s"]``) are host time -- both are
exactly the fields :func:`repro.verify.differential.
normalised_history_bytes` masks out, so a resumed run's normalised
history is still byte-identical to the uninterrupted run's.
"""

from __future__ import annotations

import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.atomicio import atomic_write_bytes

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "ResumeOverrideWarning",
    "Checkpoint",
    "capture_engine_state",
    "apply_resume_overrides",
    "encode_checkpoint",
    "decode_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "resolve_checkpoint",
    "resolve_resume",
    "CheckpointManager",
]

#: file magic; the trailing byte versions the *container*, the struct
#: field below versions the *payload schema*
MAGIC = b"FEDMPCKPT\x00"
#: current payload schema version; bump on any incompatible change
FORMAT_VERSION = 3

_HEADER = struct.Struct("<II")  # format version, CRC-32 of the payload
_HEADER_LEN = len(MAGIC) + _HEADER.size


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint's format version is not supported by this code."""


class ResumeOverrideWarning(UserWarning):
    """A resumed run is overriding checkpointed config fields from the
    command line; the continuation is no longer byte-identical to the
    uninterrupted original."""


@dataclass
class Checkpoint:
    """One decoded checkpoint: schema version plus the state payload."""

    version: int
    payload: Dict[str, object]
    path: Optional[Path] = None

    @property
    def config(self):
        return self.payload["config"]

    @property
    def scheduler(self) -> str:
        return self.payload["scheduler"]

    @property
    def next_round(self) -> int:
        return int(self.payload["next_round"])

    @property
    def meta(self) -> Optional[dict]:
        return self.payload.get("meta")


def _generator_state(rng) -> dict:
    return rng.bit_generator.state


def capture_engine_state(engine, scheduler: str, next_round: int,
                         queue=None) -> Dict[str, object]:
    """Snapshot an engine (and its scheduler's outstanding queue) at a
    round boundary.

    ``next_round`` is the first round the resumed run will execute;
    ``queue`` carries the in-flight dispatches of the event-driven
    schedulers (None under the synchronous barrier, whose rounds never
    span a boundary).  The returned dict is self-contained and pickled
    as one object by :func:`encode_checkpoint`.
    """
    hook_states = []
    for hook in engine.hooks.hooks:
        capture = getattr(hook, "checkpoint_state", None)
        state = capture() if capture is not None else None
        if state is not None:
            hook_states.append((type(hook).__name__, state))
    # service-mode extras (fleet roster, registration counters): only
    # present when a FedMPService installed a provider on the engine
    extra_provider = getattr(engine, "checkpoint_extra_provider", None)
    service_state = extra_provider() if extra_provider is not None else None
    return {
        "format_version": FORMAT_VERSION,
        "meta": engine.checkpoint_meta,
        "config": engine.config,
        "scheduler": scheduler,
        "next_round": int(next_round),
        "rng": {
            "master": _generator_state(engine.master_rng),
            "extract": _generator_state(engine.extract_rng),
            "churn": _generator_state(engine._churn_rng),
            "sampling": _generator_state(engine._sampling_rng),
        },
        "model_state": engine.model.state_dict(),
        "module_rngs": engine.model.rng_states(),
        "workers": engine.worker_runtime_states(),
        "strategy": engine.strategy,
        "error_feedback": engine.error_feedback,
        "clock": engine.clock,
        "history": engine.history,
        "prev_train_loss": engine._prev_train_loss,
        "plan_cache": engine._plan_cache,
        "submodel_cache": engine._submodel_cache,
        "round_state": engine._round_state,
        "hooks": hook_states,
        "queue": queue,
        "service": service_state,
    }


def apply_resume_overrides(checkpoint: Checkpoint, **overrides) -> list:
    """Override checkpointed config fields for a resumed run.

    ``repro run --resume`` used to silently ignore explicit CLI flags
    like ``--clients-per-round`` (the checkpoint's config always won).
    This applies the given field overrides to the checkpoint's config
    *in the payload itself* -- so :class:`~repro.fl.engine.Engine`'s
    restore-time config equality check sees one consistent config --
    and emits a :class:`ResumeOverrideWarning` naming every field whose
    value actually changed.  Returns the list of changed field names
    (empty when every override already matched, in which case no
    warning is emitted and the continuation stays byte-identical).
    """
    import dataclasses
    import warnings

    config = checkpoint.payload["config"]
    changed = [
        name for name in sorted(overrides)
        if getattr(config, name) != overrides[name]
    ]
    if not changed:
        return []
    checkpoint.payload["config"] = dataclasses.replace(
        config, **{name: overrides[name] for name in changed}
    )
    details = ", ".join(
        f"{name}: {getattr(config, name)!r} -> {overrides[name]!r}"
        for name in changed
    )
    warnings.warn(
        f"resume overrides checkpointed config field(s) {details}; "
        f"the continuation will diverge from the original run",
        ResumeOverrideWarning,
        stacklevel=2,
    )
    return changed


def encode_checkpoint(payload: Dict[str, object]) -> bytes:
    """Serialise a payload into the versioned container format."""
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint payload is not picklable: {exc}"
        ) from exc
    return MAGIC + _HEADER.pack(FORMAT_VERSION, zlib.crc32(blob)) + blob


def decode_checkpoint(data: bytes, source: str = "<bytes>") -> Checkpoint:
    """Validate the container header and the payload's CRC, then unpickle.

    Both checks run *before* any unpickling, so a wrong file, a future
    format or a flipped byte fails with a typed error, never with an
    arbitrary pickle exception or a silently different resume."""
    if len(data) < _HEADER_LEN or not data.startswith(MAGIC):
        raise CheckpointError(
            f"{source} is not a FedMP checkpoint (bad magic)"
        )
    version, crc = _HEADER.unpack_from(data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{source} has checkpoint format version {version}; this "
            f"build supports only version {FORMAT_VERSION}"
        )
    blob = memoryview(data)[_HEADER_LEN:]
    if zlib.crc32(blob) != crc:
        raise CheckpointError(f"{source} is truncated or corrupt: CRC "
                              f"mismatch (stored {crc:#010x})")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"{source} is truncated or corrupt: {exc}"
        ) from exc
    return Checkpoint(version=version, payload=payload)


def save_checkpoint(path: Union[str, Path],
                    payload: Dict[str, object]) -> int:
    """Atomically write a checkpoint file; returns the bytes written."""
    data = encode_checkpoint(payload)
    atomic_write_bytes(path, data)
    return len(data)


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read and decode one checkpoint file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    checkpoint = decode_checkpoint(data, source=str(path))
    checkpoint.path = path
    return checkpoint


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The highest-round ``ckpt-*.ckpt`` in a directory, or None."""
    directory = Path(directory)
    if not directory.is_dir():
        return None
    best: Optional[Path] = None
    best_round = -1
    for candidate in directory.glob("ckpt-*.ckpt"):
        stem = candidate.name[len("ckpt-"):-len(".ckpt")]
        try:
            round_index = int(stem)
        except ValueError:
            continue
        if round_index > best_round:
            best_round = round_index
            best = candidate
    return best


def resolve_checkpoint(path: Union[str, Path]) -> Path:
    """A checkpoint file from a file-or-directory argument.

    Given a directory, picks its latest checkpoint; given a file,
    returns it.  Raises :class:`CheckpointError` when nothing usable
    exists.
    """
    path = Path(path)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            raise CheckpointError(
                f"no ckpt-*.ckpt files found in directory {path}"
            )
        return found
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    return path


def resolve_resume(
        config, resume_from) -> Tuple[object, Optional[Checkpoint]]:
    """``(config, checkpoint)`` a run starts from.

    ``resume_from`` is ``None`` (a fresh run: ``config`` is required),
    a checkpoint file, a checkpoint directory (its latest checkpoint)
    or a loaded :class:`Checkpoint`.  A resume takes the checkpoint's
    config; an explicit ``config`` must equal it, or
    :class:`CheckpointError` is raised.
    """
    if resume_from is None:
        if config is None:
            raise ValueError("config is required unless resume_from is set")
        return config, None
    checkpoint = resume_from if isinstance(resume_from, Checkpoint) \
        else load_checkpoint(resolve_checkpoint(resume_from))
    if config is not None and config != checkpoint.config:
        raise CheckpointError(
            "explicit config differs from the checkpoint's; pass "
            "config=None to resume with the checkpointed config"
        )
    return checkpoint.config, checkpoint


class CheckpointManager:
    """Cadenced, telemetered checkpoint writes for one engine.

    Owned by the engine when ``FLConfig.checkpoint_dir`` is set; the
    scheduler reports each completed round and the manager writes
    ``ckpt-<next_round>.ckpt`` whenever the cadence
    (``FLConfig.checkpoint_every``) is due or the run is finishing.
    Emits ``checkpoint_write_s`` (histogram), ``checkpoint_bytes``
    (gauge, last size) and ``checkpoints_written_total`` /
    ``checkpoint_bytes_total`` (counters).
    """

    def __init__(self, directory: Union[str, Path], every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.directory = Path(directory)
        self.every = int(every)
        self.last_path: Optional[Path] = None

    def maybe_save(self, engine, scheduler: str, next_round: int,
                   queue=None, final: bool = False) -> Optional[Path]:
        """Write a checkpoint if the cadence is due (or ``final``)."""
        if not final and next_round % self.every != 0:
            return None
        return self.save(engine, scheduler, next_round, queue=queue)

    def save(self, engine, scheduler: str, next_round: int,
             queue=None) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"ckpt-{next_round:06d}.ckpt"
        start = time.perf_counter()
        payload = capture_engine_state(engine, scheduler, next_round,
                                       queue=queue)
        size = save_checkpoint(path, payload)
        elapsed = time.perf_counter() - start
        metrics = engine.telemetry.metrics
        metrics.histogram("checkpoint_write_s").observe(elapsed)
        metrics.gauge("checkpoint_bytes").set(float(size))
        metrics.counter("checkpoints_written_total").inc()
        metrics.counter("checkpoint_bytes_total").inc(size)
        self.last_path = path
        return path
