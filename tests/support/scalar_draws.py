"""Scalar-draw oracles for the seeded set-up generators.

``make_synthetic_ptb`` and ``make_cluster_devices`` once drew one
scalar from the generator per token and per device.  They now draw a
whole split or cluster at once; the loops below are the scalar versions
kept verbatim, so ``tests/test_scalar_draws.py`` can hold the vectorised
draws to the same outputs *and* the same generator state afterwards.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.data.text import TextDataset
from repro.simulation.cluster import CLUSTERS
from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile
from repro.simulation.network import bandwidth_for_distance


def scalar_synthetic_ptb(vocab_size: int = 500, train_tokens: int = 40_000,
                         valid_tokens: int = 4_000, test_tokens: int = 4_000,
                         branching: int = 8,
                         rng: Optional[np.random.Generator] = None) -> TextDataset:
    """The Markov-chain corpus, one ``rng.choice`` per token."""
    rng = rng if rng is not None else np.random.default_rng(0)

    # Zipf-ish unigram prior over the vocabulary.
    ranks = np.arange(1, vocab_size + 1)
    unigram = (1.0 / ranks) / (1.0 / ranks).sum()

    # Per-token successor sets drawn from the unigram prior.
    successors = np.empty((vocab_size, branching), dtype=np.int64)
    weights = np.empty((vocab_size, branching))
    for token in range(vocab_size):
        successors[token] = rng.choice(vocab_size, size=branching,
                                       replace=False, p=unigram)
        raw = rng.dirichlet(np.ones(branching) * 0.5)
        weights[token] = raw

    def _generate(length: int) -> np.ndarray:
        tokens = np.empty(length, dtype=np.int64)
        current = int(rng.choice(vocab_size, p=unigram))
        for index in range(length):
            tokens[index] = current
            current = int(
                rng.choice(successors[current], p=weights[current])
            )
        return tokens

    return TextDataset(
        name="ptb",
        vocab_size=vocab_size,
        train_tokens=_generate(train_tokens),
        valid_tokens=_generate(valid_tokens),
        test_tokens=_generate(test_tokens),
    )


def scalar_cluster_devices(cluster: str, count: int,
                           rng: np.random.Generator,
                           start_id: int = 0) -> List[DeviceProfile]:
    """``count`` devices of one cluster, two scalar draws per device."""
    spec = CLUSTERS[cluster]
    # bit-equal to rng.choice(modes), six times cheaper (fleet scale)
    modes, (low, high) = spec.modes, spec.distance_range_m
    devices = []
    for offset in range(count):
        mode_index = modes[int(rng.integers(len(modes)))]
        distance = float(rng.uniform(low, high))
        devices.append(
            DeviceProfile(
                device_id=start_id + offset,
                mode=JETSON_TX2_MODES[mode_index],
                bandwidth_bps=bandwidth_for_distance(distance),
                cluster=spec.name,
            )
        )
    return devices


def scalar_scenario_devices(composition, rng: np.random.Generator) -> List[DeviceProfile]:
    """A ``{cluster: count}`` fleet through :func:`scalar_cluster_devices`."""
    devices: List[DeviceProfile] = []
    for cluster in sorted(composition):
        devices.extend(
            scalar_cluster_devices(cluster, composition[cluster], rng,
                                   start_id=len(devices))
        )
    return devices
