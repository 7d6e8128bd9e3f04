"""The one-call facade over the round engine.

A run is composed from pluggable layers:

- :mod:`repro.fl.engine` -- shared dispatch/train/record plumbing;
- :mod:`repro.fl.schedulers` -- the round loop and its synchronisation
  rules (sync barrier, async first-``m`` arrivals, semi-sync per-round
  deadline);
- :mod:`repro.fl.aggregation` -- R2SP/BSP aggregators and their
  sample-count-weighted variants;
- :mod:`repro.fl.hooks` -- per-round instrumentation callbacks.

``run_federated_training`` builds an :class:`~repro.fl.engine.Engine`
from the config and runs it under the scheduler the config selects.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.fl.checkpoint import Checkpoint, resolve_resume
from repro.fl.config import FLConfig
from repro.fl.engine import Dispatch, Engine
from repro.fl.history import TrainingHistory
from repro.fl.hooks import RoundHook
from repro.fl.schedulers import make_scheduler
from repro.simulation.device import DeviceProfile
from repro.telemetry.runtime import Telemetry

__all__ = ["Dispatch", "Engine", "run_federated_training"]


def run_federated_training(
        task, devices: Sequence[DeviceProfile],
        config: Optional[FLConfig],
        hooks: Optional[Iterable[RoundHook]] = None,
        telemetry: Optional[Telemetry] = None,
        checkpoint_meta: Optional[dict] = None,
        resume_from: Optional[Union[str, Path, Checkpoint]] = None,
        ) -> TrainingHistory:
    """Run one federated-training experiment and return its history.

    ``task`` is a :mod:`repro.fl.tasks` adapter; ``devices`` defines the
    heterogeneous workers (one per device); ``config`` selects strategy,
    scheduler, aggregation scheme and stopping criteria.  ``hooks``
    optionally attaches :class:`~repro.fl.hooks.RoundHook` observers;
    ``telemetry`` optionally attaches a :class:`~repro.telemetry.
    Telemetry` bundle the engine and scheduler emit spans/metrics into
    (pair it with :class:`~repro.telemetry.TelemetryHook` in ``hooks``
    for the per-round metrics and E-UCB snapshots).

    ``resume_from`` continues a checkpointed run: a checkpoint file, a
    checkpoint directory (its latest checkpoint is used) or an already
    loaded :class:`~repro.fl.checkpoint.Checkpoint`.  ``config`` may
    then be ``None`` (the checkpoint's config is used) or must equal
    the checkpoint's exactly.  The resumed run re-attaches the same
    hook stack and finishes with a history byte-identical (after
    wall-time normalisation) to the uninterrupted run's.
    """
    config, checkpoint = resolve_resume(config, resume_from)
    engine = Engine(task, devices, config, hooks=hooks,
                    telemetry=telemetry, restore=checkpoint,
                    checkpoint_meta=checkpoint_meta)
    scheduler = make_scheduler(config)
    try:
        return scheduler.run(engine)
    finally:
        # with executor="process" this tears down the worker pool; the
        # serial executor's close is a no-op
        engine.close()
