"""Verification subsystem: invariants, differential runs, fault injection.

Three complementary ways of checking that the round engine does what
it claims (see DESIGN.md section 3.4):

- :mod:`repro.verify.invariants` -- an engine hook that re-derives
  R2SP mass conservation, plan well-formedness, error-feedback
  accounting and E-UCB statistics integrity every round against slow
  reference oracles.
- :mod:`repro.verify.differential` -- runs semantics-preserving
  pairs (the engine vs the per-member reference round, sync vs
  semi-sync with an unreachable deadline) under one seed and reports
  the first ULP divergence.
- :mod:`repro.verify.oracle` -- the slow reference implementations the
  two above compare against: a dense aggregator and a per-member
  reference round.  Production code never imports it.
- :mod:`repro.verify.faults` -- deterministic injection of dropped,
  duplicated, poisoned, stale and zero-sample contributions, with the
  engine's response pinned per fault kind.

- :mod:`repro.verify.resume` -- the kill-and-resume differential: a
  subprocess run is SIGKILLed mid-round, resumed from its latest
  checkpoint in a fresh process, and must finish byte-identical to
  the uninterrupted reference (not imported here: it doubles as the
  ``python -m repro.verify.resume`` crash/resume harness).

:func:`repro.verify.run.run_verification` (CLI: ``repro verify``)
composes them into one pass/fail battery.  Property-test
generators live in :mod:`repro.verify.strategies`; they are not
imported here so ``repro.verify`` works without ``hypothesis``.
"""

from repro.verify.differential import (
    DifferentialReport,
    ParamDivergence,
    StateCaptureHook,
    compare_state_sequences,
    differential_engine_vs_reference,
    differential_serial_vs_process,
    differential_sync_vs_semisync,
    normalised_history_bytes,
    ulp_distance,
)
from repro.verify.errors import (
    AggregationError,
    DivergenceError,
    DuplicateContributionError,
    EmptyRoundError,
    InvariantViolation,
    PoisonedUpdateError,
    VerificationError,
)
from repro.verify.faults import FAULT_KINDS, FaultInjectionHook, FaultSpec
from repro.verify.invariants import ALL_CHECKS, InvariantHook
from repro.verify.run import (
    CheckResult,
    VerificationReport,
    run_verification,
)

__all__ = [
    "AggregationError",
    "ALL_CHECKS",
    "CheckResult",
    "DifferentialReport",
    "DivergenceError",
    "DuplicateContributionError",
    "EmptyRoundError",
    "FAULT_KINDS",
    "FaultInjectionHook",
    "FaultSpec",
    "InvariantHook",
    "InvariantViolation",
    "ParamDivergence",
    "PoisonedUpdateError",
    "StateCaptureHook",
    "VerificationError",
    "VerificationReport",
    "compare_state_sequences",
    "differential_engine_vs_reference",
    "differential_serial_vs_process",
    "differential_sync_vs_semisync",
    "normalised_history_bytes",
    "run_verification",
    "ulp_distance",
]
