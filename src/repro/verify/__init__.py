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

- :mod:`repro.verify.harness` -- the one proof harness: a
  :class:`~repro.verify.harness.RunSpec` runs in-process (memoised)
  or as production-CLI subprocess legs (`repro run|serve|client`), and
  one comparator demands byte-identical normalised history and 0-ULP
  final weights -- across SIGKILL-and-resume and the socket service.
  ``python -m repro.verify --kill-at K <repro argv...>`` is the CLI
  with a SIGKILL in round K, the crash leg of those checks.

:func:`repro.verify.run.run_verification` (CLI: ``repro verify``,
``--stages PREFIX[,...]`` for a subset) runs them as one declared
table of pass/fail stages.  Property-test
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
