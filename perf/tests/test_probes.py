"""The probe protocol: warm-ups, then the timed calls."""

from harness.probes import QUICK_CALLS, TIMED_CALLS, WARMUP_CALLS, Meter


class SteppingClock:
    """Every ``fn()`` call advances time by ``step``."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step
        self.calls = 0

    def __call__(self):
        return self.now

    def work(self):
        self.calls += 1
        self.now += self.step


def test_probe_runs_three_warmups_and_twenty_calls():
    clock = SteppingClock(0.001)
    value, calls = Meter(clock=clock)(clock.work)
    assert calls == TIMED_CALLS == 20
    assert clock.calls == WARMUP_CALLS + TIMED_CALLS == 23
    assert abs(value - 1.0) < 1e-9  # milliseconds


def test_a_slow_probe_still_makes_every_call():
    clock = SteppingClock(0.3)
    value, calls = Meter(clock=clock)(clock.work, scale=1.0)
    assert calls == TIMED_CALLS
    assert abs(value - 0.3) < 1e-9


def test_quick_probe_is_a_smoke_run():
    clock = SteppingClock(0.001)
    _, calls = Meter(quick=True, clock=clock)(clock.work)
    assert calls == QUICK_CALLS
