"""Worker clusters and heterogeneity scenarios (Fig. 3, Section V-E).

Fig. 3 partitions the 30 devices into three clusters by computing mode
(x-axis) and location (y-axis):

- cluster **A**: modes 0-1, near the PS (fast compute, fast links),
- cluster **B**: modes 1-2, mid-range,
- cluster **C**: modes 2-3, far (slow compute, slow links).

Section V-E builds three heterogeneity levels from them: *Low* = 10 x A,
*Medium* = 5 x A + 5 x B (the default setting), *High* = 3A + 3B + 4C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile
from repro.simulation.network import bandwidth_for_distance


@dataclass(frozen=True)
class ClusterSpec:
    """Which computing modes and distances a cluster draws from."""

    name: str
    modes: Tuple[int, ...]
    distance_range_m: Tuple[float, float]


#: The three clusters of Fig. 3.
CLUSTERS: Dict[str, ClusterSpec] = {
    "A": ClusterSpec("A", (0, 1), (8.0, 15.0)),
    "B": ClusterSpec("B", (1, 2), (15.0, 30.0)),
    "C": ClusterSpec("C", (2, 3), (30.0, 60.0)),
}

#: Section V-E scenarios: cluster name -> worker count.
HETEROGENEITY_SCENARIOS: Dict[str, Dict[str, int]] = {
    "low": {"A": 10},
    "medium": {"A": 5, "B": 5},
    "high": {"A": 3, "B": 3, "C": 4},
}


def make_cluster_devices(cluster: str, count: int,
                         rng: np.random.Generator,
                         start_id: int = 0) -> List[DeviceProfile]:
    """Sample ``count`` devices from one cluster.

    Mode and distance are drawn uniformly from the cluster's ranges
    using the caller's generator, so scenarios are reproducible.
    """
    try:
        spec = CLUSTERS[cluster]
    except KeyError:
        raise KeyError(
            f"unknown cluster {cluster!r}; available: {sorted(CLUSTERS)}"
        ) from None
    if count < 0:
        raise ValueError(
            f"cluster {cluster!r}: device count must be >= 0, got {count}")
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"cluster {cluster!r}: the device draw lays out "
                        f"PCG64 words, got {type(bits).__name__}")
    # One ``random_raw`` holds the words that ``count`` interleaved
    # ``rng.integers(2)`` / ``rng.uniform(low, high)`` calls consume.
    # PCG64 serves the two-way int (every cluster has two modes) from a
    # 32-bit half-word (a fresh word's low half, then its buffered high
    # half) and Lemire's bound keeps the half's top bit; a uniform takes
    # a word's top 53 bits.  So two devices take three words, [int,
    # uniform, uniform], after a half-word already buffered on entry has
    # served the first device.
    entry = bits.state
    buffered = int(count > 0 and entry["has_uint32"])
    fresh = count - buffered
    words = bits.random_raw(buffered + fresh + (fresh + 1) // 2)
    ints = words[buffered::3]
    halves = np.stack([ints >> 31 & 1, ints >> 63], axis=1).ravel()
    mode_bits = [entry["uinteger"] >> 31] * buffered + halves[:fresh].tolist()
    uniforms = np.delete(words, np.s_[buffered::3])
    low, high = spec.distance_range_m
    distances = low + (high - low) * ((uniforms >> 11) * 2.0 ** -53)
    if count:
        state = bits.state
        state["has_uint32"] = fresh % 2
        if fresh:
            state["uinteger"] = int(ints[-1] >> 32)
        bits.state = state
    # bandwidth_for_distance stays a libm call per device: NumPy's SIMD
    # log2 / power need not round like it does.
    modes = [JETSON_TX2_MODES[mode] for mode in spec.modes]
    return [
        DeviceProfile(
            device_id=start_id + offset,
            mode=modes[bit],
            bandwidth_bps=bandwidth_for_distance(distance),
            cluster=spec.name,
        )
        for offset, (bit, distance)
        in enumerate(zip(mode_bits, distances.tolist()))
    ]


def make_scenario_devices(scenario, rng: np.random.Generator) -> List[DeviceProfile]:
    """Build the device list for a heterogeneity scenario.

    ``scenario`` is either a name from :data:`HETEROGENEITY_SCENARIOS`
    or a ``{cluster: count}`` mapping.
    """
    if isinstance(scenario, str):
        try:
            composition = HETEROGENEITY_SCENARIOS[scenario]
        except KeyError:
            raise KeyError(
                f"unknown scenario {scenario!r}; available: "
                f"{sorted(HETEROGENEITY_SCENARIOS)}"
            ) from None
    else:
        composition = dict(scenario)

    devices: List[DeviceProfile] = []
    for cluster in sorted(composition):
        devices.extend(
            make_cluster_devices(cluster, composition[cluster], rng,
                                 start_id=len(devices))
        )
    return devices


def scenario_table(devices: Sequence[DeviceProfile]) -> List[Tuple[int, str, int, float]]:
    """Rows ``(device_id, cluster, mode, Mbps)`` for reporting (Fig. 3)."""
    return [
        (d.device_id, d.cluster, d.mode.index, d.bandwidth_bps / 1e6)
        for d in devices
    ]
