"""Waiting for remote replies: timeouts, retry accounting, stragglers.

Every link that waits for a remote reply -- the pool's
:meth:`~repro.runtime.pool.ProcessPool.gather`, the service's
:meth:`~repro.serve.service.PullLink.gather` and a client's
:meth:`~repro.runtime.sockets.SocketTransport.request` -- waits in one
loop, :meth:`RetryClock.wait_until`.  Nothing is ever resent: pipes and
TCP connections do not lose messages, and a dispatch frame trains the
same bits wherever and however often it is trained, so there is nothing
a resend could recover.  Each backoff interval in which nothing arrived
counts in ``retries_total{transport=...}``; the wait ends in
:class:`WorkerCrashError` once the caller reports its peer lost, and in
:class:`TransportTimeoutError` once the :class:`RetryPolicy` budget is
spent.

:class:`StragglerDetector` is the wall-clock heartbeat: it applies the
*same* quorum-deadline rule the schedulers use on simulated times
(:class:`repro.simulation.faults.DeadlinePolicy`) to the observed
completion times of one parallel batch, flagging pool members that are
materially slower than the fleet.  Detection is observability-only --
it feeds telemetry (``stragglers_total``, ``straggler_detected``
events), never the simulated schedule, so parallel runs stay
bitwise-identical to serial ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.simulation.faults import DeadlinePolicy

__all__ = [
    "TransportError",
    "TransportTimeoutError",
    "WorkerCrashError",
    "RetryPolicy",
    "RetryClock",
    "StragglerDetector",
]


class TransportError(RuntimeError):
    """Base class for transport failures."""


class TransportTimeoutError(TransportError):
    """No reply arrived within the retry budget."""


class WorkerCrashError(TransportError):
    """A receiver died or left with requests outstanding."""


@dataclass(frozen=True)
class RetryPolicy:
    """One wait's timeout and backoff budget.

    ``backoff(attempt)`` yields the poll interval for the given
    zero-based attempt; a wait fails with :class:`TransportTimeoutError`
    after ``max_retries`` consecutive empty intervals or once
    ``timeout_s`` of total waiting elapses, whichever comes first.
    """

    timeout_s: float = 600.0
    max_retries: int = 10
    backoff_s: float = 0.25
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        return self.backoff_s * self.backoff_factor ** attempt

    def clock(self) -> "RetryClock":
        """Start one wait's accounting under this policy."""
        return RetryClock(self)


class RetryClock:
    """One wait's retry accounting, started when the wait starts."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.attempts = 0
        self._start = time.perf_counter()

    def tick(self) -> None:
        """One empty interval, counted against the attempt budget."""
        self.attempts += 1

    def wait_until(self, done: Callable[[], bool],
                   wait: Callable[[float], object],
                   lost: Callable[[], Optional[str]],
                   metrics, transport: str) -> None:
        """Wait until ``done()``, one backoff interval at a time.

        On every pass, in this order: return once ``done()``; raise
        :class:`WorkerCrashError` if ``lost()`` names a lost peer;
        raise :class:`TransportTimeoutError` once either budget is
        spent; else ``wait(seconds)`` -- truthy if anything arrived,
        which restarts the attempt count, and an empty interval ticks
        the clock.
        """
        policy = self.policy
        while not done():
            gone = lost()
            if gone:
                raise WorkerCrashError(gone)
            elapsed = time.perf_counter() - self._start
            if elapsed >= policy.timeout_s \
                    or self.attempts > policy.max_retries:
                raise TransportTimeoutError(
                    f"no reply over the {transport} transport after "
                    f"{elapsed:.1f}s and {self.attempts} empty backoff "
                    f"interval(s) (budget {policy.timeout_s:.1f}s, "
                    f"{policy.max_retries} retries)"
                )
            if wait(min(policy.backoff(self.attempts),
                        policy.timeout_s - elapsed)):
                self.attempts = 0   # the peer is alive
            else:
                if metrics is not None:
                    metrics.counter("retries_total",
                                    transport=transport).inc()
                self.tick()


class StragglerDetector:
    """Wall-clock straggler heartbeat over one parallel batch.

    Applies :class:`~repro.simulation.faults.DeadlinePolicy` -- the
    exact rule the semi-sync/deadline schedulers apply to *simulated*
    completion times -- to the *observed* per-worker wall times of a
    pool round: record the time ``d`` at which the quorum fraction of
    replies is in, then flag whoever is slower than
    ``deadline_multiplier * d``.
    """

    def __init__(self, quorum_fraction: float = 0.85,
                 deadline_multiplier: float = 1.5) -> None:
        self.policy = DeadlinePolicy(quorum_fraction, deadline_multiplier)

    def flag(self, completion_s: Dict[int, float]) -> List[int]:
        """Worker ids whose observed completion breached the deadline."""
        if len(completion_s) < 2:
            return []
        return list(self.policy.apply(completion_s).discarded)
