"""Simulated wall clock.

Every "seconds" axis in the reproduction refers to this clock, which
advances by the synchronisation rule of the active strategy: the
slowest worker per round in synchronous FL (Eq. 6), event-driven
arrivals in asynchronous FL.
"""

from __future__ import annotations


class SimulationClock:
    """Monotone simulated time."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance time; rejects negative increments."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump forward to an absolute timestamp (event-driven mode)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, "
                f"target={timestamp}"
            )
        self._now = timestamp
        return self._now
