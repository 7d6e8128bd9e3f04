"""Strategy interface and capability metadata (Table I)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fl.config import FLConfig
from repro.simulation.timing import RoundCosts


@dataclass(frozen=True)
class Capabilities:
    """Table I columns for one method."""

    efficient_computation: bool = False
    efficient_communication: bool = False
    hardware_independent: bool = True
    computation_heterogeneity: bool = False
    communication_heterogeneity: bool = False
    convergence_guarantee: bool = False

    def row(self) -> List[str]:
        """Check-mark row for the Table I bench."""
        return [
            "yes" if flag else "-"
            for flag in (
                self.efficient_computation,
                self.efficient_communication,
                self.hardware_independent,
                self.computation_heterogeneity,
                self.communication_heterogeneity,
                self.convergence_guarantee,
            )
        ]


@dataclass
class RoundObservation:
    """What a strategy learns after one round."""

    round_index: int
    costs: Dict[int, RoundCosts]       # accepted workers only
    delta_loss: float                  # decrease of the (train) loss
    discarded: List[int] = field(default_factory=list)
    #: stragglers whose dispatches carried over to the next round
    #: (semi-synchronous scheduling; they were not discarded)
    carried_over: List[int] = field(default_factory=list)


class Strategy:
    """Decides per-worker pruning ratios, local iterations and uplink
    compression for every round.

    Subclasses override the hooks they care about; the defaults describe
    plain synchronous FedAvg (Syn-FL).
    """

    name = "base"
    capabilities = Capabilities()

    def __init__(self, worker_ids: List[int], config: FLConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.worker_ids = list(worker_ids)
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    # per-round hooks
    # ------------------------------------------------------------------
    def select_ratios(self, round_index: int,
                      worker_ids: Optional[List[int]] = None) -> Dict[int, float]:
        """Pruning ratio per worker; 0 means the full model."""
        ids = worker_ids if worker_ids is not None else self.worker_ids
        return {wid: 0.0 for wid in ids}

    def local_iterations(self, worker_id: int) -> int:
        """How many local SGD steps this worker runs (tau by default)."""
        return self.config.local_iterations

    def upload_keep_fraction(self, worker_id: int) -> float:
        """Fraction of the update kept on the uplink (1.0 = no compression)."""
        return 1.0

    def proximal_mu(self) -> float:
        """FedProx proximal coefficient; 0 disables the proximal term."""
        return 0.0

    def observe_round(self, observation: RoundObservation) -> None:
        """Digest the round's outcome (completion times, loss change)."""

    # ------------------------------------------------------------------
    # live fleet membership (service mode)
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: int, device=None) -> None:
        """A worker joined mid-run.  The default just tracks the id;
        stateful strategies override to create per-worker state.  Note
        that a worker known since construction re-registering (service
        reconnect) must be a no-op -- per-worker state, including any
        RNG draws made to create it, survives across reconnects."""
        if worker_id not in self.worker_ids:
            self.worker_ids.append(worker_id)
            self.worker_ids.sort()

    def retire_worker(self, worker_id: int) -> None:
        """A worker left mid-run.  The default just drops the id;
        stateful strategies override to park (not delete) per-worker
        state so a rejoining worker resumes where it left off."""
        if worker_id in self.worker_ids:
            self.worker_ids.remove(worker_id)
