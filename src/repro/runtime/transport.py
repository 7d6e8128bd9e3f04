"""Transport semantics over the worker pool: timeouts, retry, stragglers.

:class:`ProcessTransport` speaks the pipe protocol of
:mod:`repro.runtime.pool` with per-call timeouts and bounded,
backoff-paced retry (:class:`~repro.runtime.sockets.SocketTransport` is
its socket twin).

Retry discipline: pipes do not lose messages, so only control messages
(pings) are ever resent -- :meth:`ProcessTransport.request` resends
with exponential backoff and discards duplicate replies by sequence
number.  Training requests are not resent (a dispatch frame carries its
worker's stream record, so a resend would train the same bits, but
there is nothing to recover); each link's gather loop instead waits
with the same backoff schedule, counts each empty interval in
``retries_total``, and escalates to :class:`TransportTimeoutError` /
:class:`WorkerCrashError`.

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
from typing import Dict, List, Optional

from repro.simulation.faults import DeadlinePolicy

__all__ = [
    "TransportError",
    "TransportTimeoutError",
    "WorkerCrashError",
    "RetryPolicy",
    "RetryClock",
    "Transport",
    "ProcessTransport",
    "StragglerDetector",
]


class TransportError(RuntimeError):
    """Base class for transport failures."""


class TransportTimeoutError(TransportError):
    """No reply arrived within the retry budget."""


class WorkerCrashError(TransportError):
    """A pool process died with requests outstanding."""


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call timeout and backoff-paced retry budget.

    ``backoff(attempt)`` yields the poll/resend interval for the given
    zero-based attempt; a call fails with
    :class:`TransportTimeoutError` after ``max_retries`` consecutive
    empty intervals or once ``timeout_s`` of total waiting elapses,
    whichever comes first.
    """

    timeout_s: float = 600.0
    max_retries: int = 10
    backoff_s: float = 0.25
    backoff_factor: float = 2.0

    def backoff(self, attempt: int) -> float:
        return self.backoff_s * self.backoff_factor ** attempt

    def clock(self, timeout_s: Optional[float] = None,
              start: Optional[float] = None) -> "RetryClock":
        """Start one call's retry accounting under this policy."""
        return RetryClock(self, timeout_s, start=start)


class RetryClock:
    """One call's worth of retry/backoff accounting.

    Every retrying call site -- :meth:`ProcessTransport.request`, the
    executor's gather loop, :class:`~repro.runtime.sockets.
    SocketTransport` -- used to inline the same four lines of budget
    arithmetic; this hoists them behind two methods:

    - :meth:`interval` -- the poll/resend interval for the current
      attempt, clamped so the call never sleeps past its budget;
    - :meth:`tick` -- record one empty interval; returns ``False`` once
      the attempt count or the wall-clock budget is exhausted, at which
      point the caller raises :class:`TransportTimeoutError`.
    """

    def __init__(self, policy: RetryPolicy,
                 timeout_s: Optional[float] = None,
                 start: Optional[float] = None) -> None:
        self.policy = policy
        self.budget_s = timeout_s if timeout_s is not None \
            else policy.timeout_s
        self.attempts = 0
        self._start = start if start is not None else time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def reset(self) -> None:
        """A reply arrived: consecutive-empty-interval count restarts."""
        self.attempts = 0

    def remaining(self) -> float:
        return self.budget_s - self.elapsed()

    def interval(self) -> float:
        return min(self.policy.backoff(self.attempts),
                   max(self.remaining(), 0.0))

    def tick(self) -> bool:
        self.attempts += 1
        if self.attempts > self.policy.max_retries:
            return False
        return self.elapsed() < self.budget_s


class Transport:
    """One request/response channel to a training endpoint."""

    name = "base"
    metrics = None

    def request(self, message, timeout_s: Optional[float] = None):
        raise NotImplementedError

    def _count_retry(self) -> None:
        if self.metrics is not None:
            self.metrics.counter("retries_total",
                                 transport=self.name).inc()

    def close(self) -> None:
        """Release channel resources (no-op by default)."""


class ProcessTransport(Transport):
    """Pipe transport to one :class:`~repro.runtime.pool.PoolMember`."""

    name = "process"

    def __init__(self, member, retry: Optional[RetryPolicy] = None,
                 metrics=None) -> None:
        self.member = member
        self.retry = retry if retry is not None else RetryPolicy()
        self.metrics = metrics

    # -- primitives (used by the executor's gather loop) ---------------
    def alive(self) -> bool:
        return self.member.proc.is_alive()

    def send(self, message) -> None:
        try:
            self.member.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"pool member {self.member.index} is gone: {exc}"
            ) from exc

    def poll(self, timeout_s: float) -> bool:
        return self.member.conn.poll(timeout_s)

    def receive(self):
        try:
            return self.member.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"pool member {self.member.index} closed its pipe "
                f"mid-conversation"
            ) from exc

    # -- idempotent round trip -----------------------------------------
    def request(self, message, timeout_s: Optional[float] = None):
        """Send an **idempotent** control message and await its reply.

        Resends with exponential backoff (each resend counts in
        ``retries_total``); replies whose sequence number does not
        match -- duplicates provoked by an earlier resend -- are
        discarded.  Training goes through the pool's pump instead: a
        resend would train the same bits again, for nothing.
        """
        seq = message[1]
        clock = self.retry.clock(timeout_s)
        self.send(message)
        while True:
            if self.poll(clock.interval()):
                reply = self.receive()
                if len(reply) >= 2 and reply[1] == seq:
                    if reply[0] == "err":
                        # the child answered with a traceback; returning
                        # it as if it were the reply would let callers
                        # treat the failure as success
                        raise TransportError(
                            f"pool member {self.member.index} raised "
                            f"while handling {message[0]!r}:\n{reply[2]}"
                        )
                    return reply
                continue  # stale duplicate from an earlier resend
            if not self.alive():
                raise WorkerCrashError(
                    f"pool member {self.member.index} died while a "
                    f"{message[0]!r} request was outstanding"
                )
            self._count_retry()
            if not clock.tick():
                raise TransportTimeoutError(
                    f"no reply to {message[0]!r} from pool member "
                    f"{self.member.index} after {clock.attempts} "
                    f"attempt(s) ({clock.budget_s:.1f}s budget)"
                )
            self.send(message)

    def close(self) -> None:
        try:
            self.member.conn.close()
        except OSError:
            pass


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
