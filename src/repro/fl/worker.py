"""A federated worker: local SGD on a simulated edge device."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD, ProximalSGD
from repro.runtime.codec import StreamRecord, WireFormatError
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

    def stream(self) -> StreamRecord:
        """Where the data stream stands: the shared worker/iterator
        generator and a shuffling iterator's epoch order and cursor (the
        live array: encode the record before training again)."""
        order = getattr(self.iterator, "_order", None)
        return StreamRecord(
            self.worker_id, self.rng.bit_generator.state, order,
            0 if order is None else int(self.iterator._cursor))

    def load_stream(self, record: StreamRecord) -> None:
        """Put the data stream at ``record``; a record that is not this
        worker's, or whose order does not fit its shard, is a
        :class:`WireFormatError`."""
        order = getattr(self.iterator, "_order", None)
        if record.worker_id != self.worker_id \
                or np.shape(order) != np.shape(record.order):
            raise WireFormatError(
                f"worker {self.worker_id}: worker {record.worker_id}'s "
                f"stream order {np.shape(record.order)} does not fit "
                f"{np.shape(order)}")
        self.rng.bit_generator.state = record.rng
        if order is not None:
            self.iterator._order = record.order
            self.iterator._cursor = int(record.cursor)

    def capture_runtime_state(self) -> Dict[str, object]:
        """Snapshot the replayable runtime state -- the :meth:`stream`
        plus the timing-jitter generator (shared with the device's
        :class:`~repro.simulation.wireless.WirelessLink`) -- which
        :meth:`restore_runtime_state` resumes bitwise."""
        stream = self.stream()
        state: Dict[str, object] = {
            "rng": stream.rng,
            "timing_rng": self.timing.rng.bit_generator.state,
        }
        if stream.order is not None:
            state["iterator"] = {"order": stream.order.copy(),
                                 "cursor": stream.cursor}
        return state

    def restore_runtime_state(self, state: Dict[str, object]) -> None:
        """Apply a :meth:`capture_runtime_state` snapshot."""
        self.timing.rng.bit_generator.state = state["timing_rng"]
        iterator = state.get("iterator") or {}
        self.load_stream(StreamRecord(
            self.worker_id, state["rng"],
            np.array(iterator["order"]) if iterator else None,
            iterator.get("cursor", 0)))

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
