"""Differential testing: two configurations of the same seeded run.

The round engine promises that several axes are
*semantics-preserving*:

- the **production round** (plan & template caching, cohort requests
  through the executor, scatter-add accumulation) is bitwise identical
  to the per-member reference round with dense aggregation
  (:class:`repro.verify.oracle.ReferenceEngine`);
- a **semi-synchronous** round with an unreachable deadline admits
  every worker, so it aggregates the same contribution *set* as the
  synchronous barrier -- in arrival order rather than worker-id order,
  which reorders the floating-point summation but (for float32 models
  summed in the aggregator's float64 accumulator) cannot change it.

This module runs both sides of such a pair under one seed, captures
the global state after every aggregation, and reports the first
divergence beyond a tolerance measured in ULPs (units in the last
place): the number of representable floats between two values, the
natural scale-free metric for "how different did the arithmetic get".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.history import TrainingHistory
from repro.fl.hooks import RoundHook
from repro.fl.schedulers import make_scheduler
from repro.verify.errors import DivergenceError
from repro.verify.oracle import ReferenceEngine

__all__ = [
    "ulp_distance",
    "StateCaptureHook",
    "ParamDivergence",
    "DifferentialReport",
    "capture_run",
    "compare_state_sequences",
    "differential_engine_vs_reference",
    "differential_sync_vs_semisync",
    "differential_serial_vs_process",
    "normalised_history_bytes",
    "normalised_history_file",
]

#: a semi-sync deadline no simulated round can miss
UNREACHABLE_DEADLINE_S = 1e12


def _ulp_key(values: np.ndarray) -> np.ndarray:
    """Monotone uint64 key of IEEE-754 floats.

    Maps each float to an unsigned integer such that the float order
    is the integer order; the ULP distance between two floats is then
    the absolute difference of their keys.
    """
    if values.dtype == np.float64:
        bits = values.view(np.uint64)
        sign = np.uint64(1) << np.uint64(63)
    elif values.dtype == np.float32:
        bits = values.view(np.uint32)
        sign = np.uint32(1) << np.uint32(31)
    else:
        raise TypeError(
            f"ulp_distance needs float32/float64 arrays, got {values.dtype}"
        )
    # positives: set the sign bit; negatives: flip all bits.  Either way
    # the resulting unsigned keys sort exactly like the floats.
    keys = np.where(bits & sign, ~bits, bits | sign)
    return keys.astype(np.uint64)


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ULP distance between two same-dtype float arrays.

    0 means bitwise identical; 1 means adjacent representable floats.
    ``+0.0`` and ``-0.0`` are adjacent (distance 1).  NaNs compare by
    bit pattern.  Distances are clipped to ``2**63 - 1``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.dtype != b.dtype:
        raise TypeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    key_a = _ulp_key(a)
    key_b = _ulp_key(b)
    diff = np.maximum(key_a, key_b) - np.minimum(key_a, key_b)
    return np.minimum(diff, np.uint64(2 ** 63 - 1)).astype(np.int64)


@dataclass
class ParamDivergence:
    """First parameter entry that exceeded the tolerance."""

    round_index: int
    key: str
    index: int          # flat index into the parameter array
    ulps: int
    value_a: float
    value_b: float


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison."""

    label_a: str
    label_b: str
    rounds_compared: int
    rounds_a: int
    rounds_b: int
    tolerance_ulps: int
    max_ulps: int
    first_divergence: Optional[ParamDivergence] = None

    @property
    def passed(self) -> bool:
        return (
            self.first_divergence is None
            and self.rounds_a == self.rounds_b
            and self.rounds_compared > 0
        )

    def describe(self) -> str:
        head = (f"{self.label_a} vs {self.label_b}: "
                f"{self.rounds_compared} rounds, "
                f"max {self.max_ulps} ULPs "
                f"(tolerance {self.tolerance_ulps})")
        if self.rounds_a != self.rounds_b:
            return (f"{head} -- FAILED: round counts differ "
                    f"({self.rounds_a} vs {self.rounds_b})")
        if self.first_divergence is not None:
            d = self.first_divergence
            return (f"{head} -- FAILED at round {d.round_index}, "
                    f"{d.key}[{d.index}]: {d.value_a!r} vs {d.value_b!r} "
                    f"({d.ulps} ULPs)")
        return f"{head} -- OK"

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise DivergenceError(self.describe())


class StateCaptureHook(RoundHook):
    """Snapshot the global state after every aggregation."""

    def __init__(self) -> None:
        self.states: List[Dict[str, np.ndarray]] = []
        self._engine = None

    def attach(self, engine) -> None:
        self._engine = engine

    def on_aggregate(self, round_index, contributions) -> None:
        # global_state already returns a fresh copy
        self.states.append(self._engine.global_state)


def capture_run(task, devices: Sequence, config: FLConfig,
                extra_hooks: Sequence[RoundHook] = (),
                engine_cls: type = Engine,
                ) -> Tuple[TrainingHistory, List[Dict[str, np.ndarray]]]:
    """Run one experiment, returning its history and the per-round
    global states.  ``engine_cls`` swaps in the reference round
    (:class:`~repro.verify.oracle.ReferenceEngine`)."""
    capture = StateCaptureHook()
    engine = engine_cls(task, devices, config,
                        hooks=[capture, *extra_hooks])
    scheduler = make_scheduler(config)
    try:
        history = scheduler.run(engine)
    finally:
        engine.close()
    return history, capture.states


def compare_state_sequences(states_a: List[Dict[str, np.ndarray]],
                            states_b: List[Dict[str, np.ndarray]],
                            tolerance_ulps: int = 0,
                            label_a: str = "a",
                            label_b: str = "b") -> DifferentialReport:
    """Compare two captured state sequences round by round.

    Reports the first entry whose ULP distance exceeds the tolerance
    (round, parameter name, flat index) plus the global maximum
    distance over all compared rounds.
    """
    rounds = min(len(states_a), len(states_b))
    max_ulps = 0
    first: Optional[ParamDivergence] = None
    for round_index in range(rounds):
        state_a, state_b = states_a[round_index], states_b[round_index]
        if state_a.keys() != state_b.keys():
            missing = sorted(state_a.keys() ^ state_b.keys())
            raise ValueError(
                f"round {round_index}: state dicts disagree on keys "
                f"{missing}"
            )
        for key in sorted(state_a):
            ulps = ulp_distance(state_a[key], state_b[key])
            worst = int(ulps.max()) if ulps.size else 0
            max_ulps = max(max_ulps, worst)
            if first is None and worst > tolerance_ulps:
                index = int(np.argmax(ulps.reshape(-1)))
                first = ParamDivergence(
                    round_index=round_index, key=key, index=index,
                    ulps=int(ulps.reshape(-1)[index]),
                    value_a=float(state_a[key].reshape(-1)[index]),
                    value_b=float(state_b[key].reshape(-1)[index]),
                )
        if first is not None:
            break
    return DifferentialReport(
        label_a=label_a, label_b=label_b, rounds_compared=rounds,
        rounds_a=len(states_a), rounds_b=len(states_b),
        tolerance_ulps=tolerance_ulps, max_ulps=max_ulps,
        first_divergence=first,
    )


def differential_engine_vs_reference(task_factory: Callable[[], object],
                                     devices: Sequence, config: FLConfig,
                                     tolerance_ulps: int = 0,
                                     ) -> DifferentialReport:
    """The production round vs the per-member reference under one seed.

    The engine buckets workers into cohorts, caches one plan and one
    template per bucket, may train a cohort as one vectorised batch,
    and scatter-adds per-cohort float64 partial sums; the reference
    plans, extracts and trains every member on its own and aggregates
    densely (:mod:`repro.verify.oracle`).  The two are *specified* to
    be bitwise identical (DESIGN.md section 3.3), rng-bearing models
    included, so the default tolerance is zero ULPs.
    """
    _, states_engine = capture_run(task_factory(), devices, config)
    _, states_reference = capture_run(
        task_factory(), devices, replace(config, executor="serial"),
        engine_cls=ReferenceEngine,
    )
    return compare_state_sequences(
        states_engine, states_reference, tolerance_ulps,
        label_a="engine", label_b="reference",
    )


def differential_sync_vs_semisync(task_factory: Callable[[], object],
                                  devices: Sequence, config: FLConfig,
                                  tolerance_ulps: int = 0,
                                  ) -> DifferentialReport:
    """Sync barrier vs semi-sync with an unreachable deadline.

    Both sides aggregate every worker each round; they differ only in
    the *order* contributions are accumulated (worker id vs arrival
    time).  Summation order still cannot change the result, because
    the aggregator accumulates float32 uploads in a float64
    accumulator: each addend carries 24 significant bits, so any sum
    of a realistic fleet's contributions is *exact* in the 53-bit
    accumulator and order-independent.  The default tolerance is
    therefore 0 ULPs; it is configurable for float64-model setups,
    where reordering genuinely rounds differently.
    """
    if config.scheduler not in ("auto", "sync") or config.async_m is not None \
            or config.semi_sync_deadline_s is not None:
        raise ValueError(
            "differential_sync_vs_semisync needs a plain synchronous "
            "base config"
        )
    sync_config = replace(config, scheduler="sync")
    semi_config = replace(config, scheduler="semi_sync",
                          semi_sync_deadline_s=UNREACHABLE_DEADLINE_S)
    _, states_sync = capture_run(task_factory(), devices, sync_config)
    _, states_semi = capture_run(task_factory(), devices, semi_config)
    return compare_state_sequences(
        states_sync, states_semi, tolerance_ulps,
        label_a="sync", label_b="semi_sync_inf",
    )


def normalised_history_bytes(history: TrainingHistory) -> bytes:
    """Canonical bytes of a history with wall-clock noise removed.

    Runs the real JSON serialisation path (:func:`repro.io.
    save_history`) and normalises the result with
    :func:`normalised_history_file`.  Two runs are behaviourally
    identical iff these bytes are equal.
    """
    import tempfile

    from repro.io import save_history

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "history.json"
        save_history(history, path)
        return normalised_history_file(path)


def normalised_history_file(path) -> bytes:
    """Canonical bytes of a saved history JSON file (``--history``).

    Zeroes the two fields that measure host time rather than simulated
    behaviour -- ``overhead_s`` and any ``extras["wall_time_s"]`` a
    hook recorded -- and re-dumps with sorted keys.
    """
    payload = json.loads(Path(path).read_text())
    for entry in payload["rounds"]:
        entry["overhead_s"] = 0.0
        extras = entry.get("extras") or {}
        extras.pop("wall_time_s", None)
    return json.dumps(payload, sort_keys=True).encode()


def differential_serial_vs_process(task_factory: Callable[[], object],
                                   devices: Sequence, config: FLConfig,
                                   tolerance_ulps: int = 0,
                                   num_procs: Optional[int] = None,
                                   ) -> Tuple[DifferentialReport, bool]:
    """Serial executor vs process-pool executor under one seed.

    The parallel runtime is *specified* to be bitwise identical
    (DESIGN.md 3.5): child workers rebuild the exact RNG streams from
    their specs and trained states travel back as exact ``float32``
    payloads, so the default tolerance is zero ULPs.  Returns the state
    report plus whether the two runs' normalised history JSON bytes
    were identical.
    """
    # the lossless escape hatch: whatever wire profile the incoming
    # config carries, the parity comparison runs over the exact wire --
    # the sparse profiles are lossy by design and cannot be 0-ULP
    serial_config = replace(config, executor="serial",
                            wire_profile="exact")
    process_config = replace(config, executor="process",
                             num_procs=num_procs, wire_profile="exact")
    history_serial, states_serial = capture_run(
        task_factory(), devices, serial_config
    )
    history_process, states_process = capture_run(
        task_factory(), devices, process_config
    )
    report = compare_state_sequences(
        states_serial, states_process, tolerance_ulps,
        label_a="serial", label_b="process",
    )
    histories_match = (
        normalised_history_bytes(history_serial)
        == normalised_history_bytes(history_process)
    )
    return report, histories_match
