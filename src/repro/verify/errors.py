"""Typed failures of the verification subsystem.

The aggregation-layer errors (:class:`AggregationError` and friends)
live in :mod:`repro.fl.aggregation` -- the layer that raises them --
and are re-exported here so verification callers have one import
surface for everything a ``repro verify`` run can raise.
"""

from __future__ import annotations

from repro.fl.aggregation import (
    AggregationError,
    DuplicateContributionError,
    EmptyRoundError,
    PoisonedUpdateError,
)

__all__ = [
    "AggregationError",
    "DuplicateContributionError",
    "EmptyRoundError",
    "PoisonedUpdateError",
    "VerificationError",
    "InvariantViolation",
]


class VerificationError(AssertionError):
    """Base class for verification failures.

    Subclasses ``AssertionError``: a verification failure means the
    system violated a property that is supposed to hold always, which
    is exactly what a failed assertion communicates (and what test
    harnesses already report well).
    """


class InvariantViolation(VerificationError):
    """A runtime invariant check failed during a round.

    Raised by :class:`repro.verify.invariants.InvariantHook` in
    ``on_violation="raise"`` mode; in ``"record"`` mode violations are
    collected on the hook instead.
    """

    def __init__(self, check: str, round_index: int, detail: str) -> None:
        self.check = check
        self.round_index = round_index
        self.detail = detail
        super().__init__(
            f"[round {round_index}] invariant {check!r} violated: {detail}"
        )
