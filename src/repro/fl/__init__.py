"""Federated-learning core: the round engine and its pluggable layers.

The package mirrors the paper's architecture (Fig. 1), decomposed into
independently pluggable layers:

- :mod:`repro.fl.config` -- one dataclass holding every knob;
- :mod:`repro.fl.tasks` -- task adapters (image classification, LSTM
  language modelling) so one engine drives all five of the paper's
  workloads;
- :mod:`repro.fl.worker` -- local training on a simulated edge device;
- :mod:`repro.fl.aggregation` -- R2SP/BSP aggregators plus their
  sample-count-weighted variants;
- :mod:`repro.fl.strategies` -- FedMP plus the four baselines
  (Syn-FL, UP-FL, FedProx, FlexCom) and the asynchronous variants;
- :mod:`repro.fl.engine` -- global model custody on the PS plus the
  shared dispatch/train/aggregate/record plumbing;
- :mod:`repro.fl.schedulers` -- the round loop and its synchronisation
  rules: sync barrier (Eq. 6), async first-``m`` arrivals
  (Algorithm 2), semi-sync per-round deadline with straggler
  carry-over;
- :mod:`repro.fl.hooks` -- per-round instrumentation callbacks
  (timing, communication volume, custom observers);
- :mod:`repro.fl.history` -- per-round records and the
  time-to-accuracy / accuracy-in-budget reductions the figures need;
- :mod:`repro.fl.runner` -- the ``run_federated_training`` facade that
  composes engine + scheduler + aggregator + hooks from a config.
"""

from repro.fl.aggregation import (
    AGGREGATORS,
    Aggregator,
    BSPAggregator,
    Contribution,
    R2SPAggregator,
    WeightedBSPAggregator,
    WeightedR2SPAggregator,
    make_aggregator,
)
from repro.fl.config import FLConfig
from repro.fl.engine import Engine
from repro.fl.history import RoundRecord, TrainingHistory
from repro.fl.hooks import CommVolumeHook, HookList, RoundHook, TimingHook
from repro.fl.runner import run_federated_training
from repro.fl.schedulers import (
    SCHEDULERS,
    AsynchronousScheduler,
    Scheduler,
    SemiSynchronousScheduler,
    SynchronousScheduler,
    make_scheduler,
)
from repro.fl.strategies import make_strategy

__all__ = [
    "AGGREGATORS",
    "Aggregator",
    "AsynchronousScheduler",
    "BSPAggregator",
    "CommVolumeHook",
    "Contribution",
    "Engine",
    "FLConfig",
    "HookList",
    "R2SPAggregator",
    "RoundHook",
    "RoundRecord",
    "SCHEDULERS",
    "Scheduler",
    "SemiSynchronousScheduler",
    "SynchronousScheduler",
    "TimingHook",
    "TrainingHistory",
    "WeightedBSPAggregator",
    "WeightedR2SPAggregator",
    "make_aggregator",
    "make_scheduler",
    "make_strategy",
    "run_federated_training",
]
