"""Edge-device compute model (Table II of the paper).

Each Jetson TX2 runs in one of four DVFS modes combining a Denver2
dual-core cluster, a Cortex-A57 quad-core cluster and a 256-core Pascal
GPU at different frequencies.  We keep Table II verbatim and derive an
*effective training throughput* per mode: training runs on the GPU
(throughput ~ GPU clock) with the CPU clusters feeding data
(a weaker secondary term), normalised so mode 0 has relative speed 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

#: Effective FLOP/s of a mode-0 device when training; calibrated so the
#: paper's CNN/MNIST rounds take tens of simulated seconds, matching the
#: magnitude of the paper's reported budgets.
BASE_FLOPS_PER_SECOND = 2.5e9

#: Multiplier applied to forward FLOPs to approximate a full training
#: iteration (forward + backward ~ 3x forward).
TRAIN_FLOPS_MULTIPLIER = 3.0


@dataclass(frozen=True)
class ComputingMode:
    """One row of Table II.

    ``denver`` / ``cortex_a57`` are ``(cores, GHz)`` or ``None`` when the
    cluster is disabled; ``gpu_ghz`` is the GPU clock.
    """

    index: int
    denver: Optional[Tuple[int, float]]
    cortex_a57: Tuple[int, float]
    gpu_ghz: float

    @property
    def a57_ghz_total(self) -> float:
        return self.cortex_a57[0] * self.cortex_a57[1]

    @cached_property
    def relative_speed(self) -> float:
        """Training speed relative to mode 0 (a pure value of the frozen
        row, so computed once: every member's dispatch prices with it).

        70% weight on the GPU clock and 30% on the Cortex-A57 cluster
        (the data pipeline; the Denver2 cluster contributes little to
        feeding a GPU training loop).  This preserves Table II's
        monotone capability ordering from mode 0 down to mode 3.
        """
        reference = JETSON_TX2_MODES[0]
        gpu_term = self.gpu_ghz / reference.gpu_ghz
        cpu_term = self.a57_ghz_total / reference.a57_ghz_total
        return 0.7 * gpu_term + 0.3 * cpu_term

    @cached_property
    def flops_per_second(self) -> float:
        return BASE_FLOPS_PER_SECOND * self.relative_speed


#: Table II verbatim: mode -> configuration.
JETSON_TX2_MODES: Dict[int, ComputingMode] = {
    0: ComputingMode(0, (2, 2.0), (4, 2.0), 1.30),
    1: ComputingMode(1, None, (4, 2.0), 1.12),
    2: ComputingMode(2, (2, 1.4), (4, 1.4), 1.12),
    3: ComputingMode(3, None, (4, 1.2), 0.85),
}


@dataclass
class DeviceProfile:
    """A concrete simulated edge device.

    Combines a Table II computing mode with a placement-derived link
    bandwidth; the FL runner never reads these fields directly — only
    completion times computed by the timing model, mirroring the
    paper's "no prior knowledge of capabilities" constraint.
    """

    device_id: int
    mode: ComputingMode
    bandwidth_bps: float
    cluster: str = "?"

    @property
    def flops_per_second(self) -> float:
        return self.mode.flops_per_second

    def describe(self) -> str:
        return (
            f"device {self.device_id}: mode {self.mode.index}, "
            f"cluster {self.cluster}, "
            f"{self.bandwidth_bps / 1e6:.1f} Mbps"
        )
