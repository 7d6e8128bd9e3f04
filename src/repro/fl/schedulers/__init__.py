"""Round schedulers: one round loop, three synchronisation rules.

:meth:`~repro.fl.schedulers.base.Scheduler.run` is the round; a rule
decides which arrivals are aggregated and when -- barrier (sync),
first-``m`` arrivals (async, Algorithm 2) and per-round deadline with
carry-over (semi-sync).  :func:`make_scheduler` maps an
:class:`~repro.fl.config.FLConfig` to the right one.
"""

from repro.fl.config import FLConfig
from repro.fl.schedulers.asynchronous import AsynchronousScheduler
from repro.fl.schedulers.base import DispatchQueue, Scheduler
from repro.fl.schedulers.semi_sync import SemiSynchronousScheduler
from repro.fl.schedulers.sync import SynchronousScheduler

#: scheduler name -> class, for config/CLI dispatch
SCHEDULERS = {
    cls.name: cls
    for cls in (
        SynchronousScheduler, AsynchronousScheduler,
        SemiSynchronousScheduler,
    )
}


def make_scheduler(config: FLConfig) -> Scheduler:
    """Build the scheduler selected by ``config``.

    ``config.scheduler`` picks the rule explicitly; the default
    ``"auto"`` derives it from the legacy knobs (``async_m`` set ->
    asynchronous, ``semi_sync_deadline_s`` set -> semi-synchronous,
    otherwise synchronous), so pre-engine configs keep working.
    :class:`~repro.fl.config.FLConfig` has already rejected a rule
    whose knob is missing.
    """
    name = config.scheduler
    auto = name == "auto"
    if name == "async" or (auto and config.async_m is not None):
        return AsynchronousScheduler(config.async_m)
    if name == "semi_sync" or (auto and config.semi_sync_deadline_s
                               is not None):
        return SemiSynchronousScheduler(config.semi_sync_deadline_s)
    return SynchronousScheduler()


__all__ = [
    "AsynchronousScheduler",
    "DispatchQueue",
    "SCHEDULERS",
    "Scheduler",
    "SemiSynchronousScheduler",
    "SynchronousScheduler",
    "make_scheduler",
]
