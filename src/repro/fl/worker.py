"""A federated worker: local SGD on a simulated edge device."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD, ProximalSGD
from repro.simulation.device import DeviceProfile
from repro.simulation.timing import RoundCosts, TimingModel


class Worker:
    """One edge node: owns a local data shard and a device profile.

    ``local_train`` mutates the received sub-model in place for ``tau``
    SGD iterations and returns the mean training loss; ``round_costs``
    converts the round's model complexity into simulated times via the
    device's timing model (Eq. 5).
    """

    def __init__(self, worker_id: int, iterator, device: DeviceProfile,
                 jitter_sigma: float = 0.08,
                 rng: Optional[np.random.Generator] = None,
                 num_samples: int = 1) -> None:
        """RNG derivation contract: ``rng`` is the worker's shared
        generator -- the data iterator's construction consumes it first,
        then this constructor draws one ``integers(2**31)`` from it to
        seed the :class:`~repro.simulation.timing.TimingModel`'s jitter
        stream.  ``repro.runtime.pool.WorkerSpec.build``, the one
        construction path, runs this sequence and
        ``tests/test_runtime/test_pool.py`` pins it.
        """
        self.worker_id = worker_id
        self.iterator = iterator
        self.device = device
        #: local shard size; the weighted aggregators use it to weight
        #: this worker's contributions
        self.num_samples = num_samples
        self.rng = rng if rng is not None else np.random.default_rng(worker_id)
        self.timing = TimingModel(
            device, jitter_sigma=jitter_sigma,
            rng=np.random.default_rng(self.rng.integers(2 ** 31)),
        )
        self.criterion = CrossEntropyLoss()

    def capture_runtime_state(self) -> Dict[str, object]:
        """Snapshot this worker's replayable runtime state.

        Covers the shared worker/iterator generator, the timing-jitter
        generator (shared with the device's
        :class:`~repro.simulation.wireless.WirelessLink`, so one state
        covers both), and -- for shuffling iterators -- the current
        epoch permutation and cursor.  Restoring the snapshot via
        :meth:`restore_runtime_state` resumes every stream at the exact
        position it was captured, which is what makes a resumed run
        bitwise-identical to the uninterrupted one.
        """
        state: Dict[str, object] = {
            "rng": self.rng.bit_generator.state,
            "timing_rng": self.timing.rng.bit_generator.state,
        }
        order = getattr(self.iterator, "_order", None)
        if order is not None:
            state["iterator"] = {
                "order": np.array(order, copy=True),
                "cursor": int(self.iterator._cursor),
            }
        return state

    def restore_runtime_state(self, state: Dict[str, object]) -> None:
        """Apply a :meth:`capture_runtime_state` snapshot."""
        self.rng.bit_generator.state = state["rng"]
        self.timing.rng.bit_generator.state = state["timing_rng"]
        iterator_state = state.get("iterator")
        if iterator_state is not None:
            self.iterator._order = np.array(iterator_state["order"], copy=True)
            self.iterator._cursor = int(iterator_state["cursor"])

    def local_train(self, model: Module, tau: int, lr: float,
                    momentum: float = 0.0, weight_decay: float = 0.0,
                    prox_mu: float = 0.0, clip_norm: Optional[float] = None,
                    anchor: Optional[Dict[str, np.ndarray]] = None) -> float:
        """Run ``tau`` local SGD iterations; returns the mean batch loss.

        With ``prox_mu > 0`` the FedProx proximal term is added, anchored
        at ``anchor`` (the state the model was dispatched with).
        """
        model.train()
        if prox_mu > 0.0:
            optimizer = ProximalSGD(model, lr=lr, mu=prox_mu,
                                    momentum=momentum,
                                    weight_decay=weight_decay,
                                    clip_norm=clip_norm)
            optimizer.set_anchor(
                anchor if anchor is not None else model.state_dict()
            )
        else:
            optimizer = SGD(model, lr=lr, momentum=momentum,
                            weight_decay=weight_decay, clip_norm=clip_norm)

        total_loss = 0.0
        for _ in range(tau):
            inputs, targets = self.iterator.next_batch()
            logits = model.forward(inputs)
            total_loss += self.criterion(logits, targets)
            model.zero_grad()
            model.backward(self.criterion.backward())
            optimizer.step()
        return total_loss / tau

    def round_costs(self, forward_flops_per_sample: float,
                    download_params: int, upload_params: int,
                    batch_size: int, tau: int) -> RoundCosts:
        """Eq. 5 cost breakdown for this round on this device."""
        return self.timing.round_costs(
            forward_flops_per_sample, download_params, upload_params,
            batch_size, tau,
        )
