"""FedMP reproduction: federated learning through adaptive model pruning.

This package reimplements the full system described in

    Jiang et al., "FedMP: Federated Learning through Adaptive Model
    Pruning in Heterogeneous Edge Computing", ICDE 2022

on a pure-NumPy substrate.  The top-level namespace re-exports the
pieces a downstream user typically needs:

- :mod:`repro.nn` -- the neural-network substrate (layers, losses, SGD),
- :mod:`repro.models` -- the paper's model zoo (CNN, AlexNet, VGG-19,
  ResNet-50, LSTM language model),
- :mod:`repro.pruning` -- l1-norm structured pruning, sub-model
  extraction/recovery and the R2SP residual machinery,
- :mod:`repro.bandit` -- the E-UCB pruning-ratio decision algorithm,
- :mod:`repro.simulation` -- the heterogeneous edge-device simulator,
- :mod:`repro.data` -- synthetic datasets and non-IID partitioners,
- :mod:`repro.fl` -- the parameter server, workers and all training
  strategies (FedMP plus the paper's baselines),
- :mod:`repro.telemetry` -- span tracing, metrics and per-layer
  profiling over the round engine.
"""

from repro import numerics  # pins BLAS to one thread (DESIGN.md section 6)

__version__ = "1.0.0"

__all__ = [
    "FLConfig",
    "run_federated_training",
    "make_strategy",
    "Telemetry",
    "TelemetryHook",
    "__version__",
]

_LAZY_EXPORTS = {
    "FLConfig": ("repro.fl.config", "FLConfig"),
    "run_federated_training": ("repro.fl.runner", "run_federated_training"),
    "make_strategy": ("repro.fl.strategies", "make_strategy"),
    "Telemetry": ("repro.telemetry.runtime", "Telemetry"),
    "TelemetryHook": ("repro.telemetry.hook", "TelemetryHook"),
}


def __getattr__(name):
    """Lazily resolve top-level exports so ``import repro.nn`` does not
    pull in the whole federated-learning stack."""
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
