"""In-process differential drivers: two configurations of one seeded
run, compared after every aggregation.

``repro verify`` runs its differential rows over
:class:`~repro.verify.harness.RunSpec`; the tests drive engines
directly through :func:`capture_run` and the three ``differential_*``
pairs below, which build on the shipped comparison pieces in
:mod:`repro.verify.differential`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.history import TrainingHistory
from repro.fl.hooks import RoundHook
from repro.fl.schedulers import make_scheduler
from repro.verify.differential import (
    UNREACHABLE_DEADLINE_S,
    DifferentialReport,
    StateCaptureHook,
    compare_state_sequences,
    normalised_history_bytes,
)
from repro.verify.errors import VerificationError
from repro.verify.oracle import ReferenceEngine


class DivergenceError(VerificationError):
    """A differential run diverged beyond the configured tolerance;
    the message names the first diverging round, parameter and flat
    index."""


def raise_if_failed(report: DifferentialReport) -> None:
    """Raise :class:`DivergenceError` unless ``report`` passed."""
    if not report.passed:
        raise DivergenceError(report.describe())


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


def differential_engine_vs_reference(task_factory: Callable[[], object],
                                     devices: Sequence, config: FLConfig,
                                     tolerance_ulps: int = 0,
                                     ) -> DifferentialReport:
    """The production round vs the per-member reference under one seed.

    The engine buckets workers into cohorts, caches one plan and one
    template per bucket, may train a cohort as one vectorised batch,
    and folds per-cohort float64 partial sums; the reference
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
