"""The set-up generators against their scalar-draw oracles.

``make_synthetic_ptb`` draws a split's uniforms in one call and
``make_cluster_devices`` a cluster's words in one ``random_raw``; the
loops in ``tests/support/scalar_draws.py`` draw one scalar per token and
per device.  Both must give the same corpus and fleet *and* leave the
generator in the same state, so every later draw from it is unchanged.
A NumPy that changes ``Generator.choice``, bounded ``integers`` or
PCG64's half-word buffer fails here by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.text import make_synthetic_ptb
from repro.simulation.cluster import (
    HETEROGENEITY_SCENARIOS,
    make_cluster_devices,
    make_scenario_devices,
)
from tests.support.scalar_draws import (
    scalar_cluster_devices,
    scalar_scenario_devices,
    scalar_synthetic_ptb,
)

SPLITS = ("train_tokens", "valid_tokens", "test_tokens")


def _state(generator):
    return generator.bit_generator.state


def _twins(seed, buffered=False):
    """Two generators in one state; ``buffered`` leaves a PCG64 half-word
    in the buffer, as a prior two-way-or-narrower ``integers`` does."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for generator in pair:
            generator.integers(5)
        assert _state(pair[0])["has_uint32"] == 1
    return pair


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sizes, seed", [
    ({}, 0),                                                # defaults
    (dict(vocab_size=300, train_tokens=30_000, valid_tokens=3_000,
          test_tokens=3_000), 104),                         # bench LM
    (dict(vocab_size=100, train_tokens=5000, valid_tokens=600,
          test_tokens=600), 4),                             # test_text.py
    (dict(vocab_size=50, train_tokens=1000), 2),
    (dict(vocab_size=40, train_tokens=2000, valid_tokens=0,
          test_tokens=1, branching=3), 17),
    (dict(vocab_size=60, train_tokens=4000, valid_tokens=500,
          test_tokens=500, branching=1), 23),
    (dict(vocab_size=12, train_tokens=9000, valid_tokens=4097,
          test_tokens=4096), 2 ** 32 - 1),
], ids=["defaults", "bench", "text_fixture", "seed2", "seed17_short",
        "seed23_one_successor", "chunk_edges"])
def test_corpus_equals_the_per_token_choice_walk(sizes, seed):
    vectorised, scalar = _twins(seed)
    corpus = make_synthetic_ptb(rng=vectorised, **sizes)
    reference = scalar_synthetic_ptb(rng=scalar, **sizes)
    for split in SPLITS:
        ours, theirs = getattr(corpus, split), getattr(reference, split)
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    assert _state(vectorised) == _state(scalar)


@pytest.mark.parametrize("split", SPLITS)
def test_negative_token_count_raises(split):
    with pytest.raises(ValueError, match=split):
        make_synthetic_ptb(vocab_size=20, rng=np.random.default_rng(0),
                           **{split: -1})


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("cluster", ["A", "B", "C"])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 8])
def test_cluster_equals_the_scalar_loop(count, cluster, buffered):
    for seed in (0, 17, 123456789):
        vectorised, scalar = _twins(seed, buffered)
        assert make_cluster_devices(cluster, count, vectorised, start_id=4) \
            == scalar_cluster_devices(cluster, count, scalar, start_id=4)
        assert _state(vectorised) == _state(scalar)
        # the buffer itself carries on: the next half-word draw agrees
        assert vectorised.integers(2) == scalar.integers(2)


@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
def test_fleet_scale_cluster_equals_the_scalar_loop(buffered):
    vectorised, scalar = _twins(5, buffered)
    assert make_cluster_devices("A", 50_000, vectorised) \
        == scalar_cluster_devices("A", 50_000, scalar)
    assert _state(vectorised) == _state(scalar)


@pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
@pytest.mark.parametrize("composition", [
    *HETEROGENEITY_SCENARIOS.values(), {"A": 1, "B": 1}, {"A": 3, "C": 5},
], ids=[*HETEROGENEITY_SCENARIOS, "one_each", "odd_carry"])
def test_scenario_equals_the_scalar_loop(composition, buffered):
    """An odd cluster leaves a half-word buffered for the next one."""
    for seed in (1, 7, 2 ** 32 - 1):
        vectorised, scalar = _twins(seed, buffered)
        assert make_scenario_devices(composition, vectorised) \
            == scalar_scenario_devices(composition, scalar)
        assert _state(vectorised) == _state(scalar)


def test_negative_device_count_raises_naming_the_cluster():
    with pytest.raises(ValueError, match="'B'"):
        make_cluster_devices("B", -1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="'A'"):
        make_scenario_devices({"A": -3, "B": 5}, np.random.default_rng(0))


@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.PCG64DXSM,
                                           np.random.Philox])
def test_other_bit_generators_raise_naming_them(bit_generator):
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(TypeError, match=bit_generator.__name__):
        make_cluster_devices("A", 3, rng)
