"""The set-up generators against their scalar-draw oracles.

``make_synthetic_ptb`` draws a split's uniforms in one call and
``make_cluster_devices`` a cluster's words in one ``random_raw``; the
loops in ``tests/support/scalar_draws.py`` draw one scalar per token and
per device.  Both must give the same corpus and fleet *and* leave the
generator in the same state, so every later draw from it is unchanged.
A NumPy that changes ``Generator.choice``, bounded ``integers`` or
PCG64's half-word buffer fails here by name.

``build_workers`` hashes a batch of worker seeds in one array pass
(``seed_words``, SeedSequence's algorithm) where ``scalar_build`` makes
two ``default_rng`` calls per worker: every worker's generators, epoch
order and draws must be the same, and a NumPy whose ``SeedSequence``
hashes differently fails ``test_seed_words_are_seed_sequence_state``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.text import make_synthetic_ptb
from repro.runtime.pool import WorkerSpec, build_workers, seed_words
from repro.simulation.cluster import (
    HETEROGENEITY_SCENARIOS,
    make_cluster_devices,
    make_scenario_devices,
)
from tests.support.scalar_draws import (
    scalar_build,
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


# ----------------------------------------------------------------------
# worker construction
# ----------------------------------------------------------------------
def test_seed_words_are_seed_sequence_state():
    seeds = np.concatenate([
        [0, 1, 2 ** 31 - 1, 2 ** 32 - 1],
        np.random.default_rng(11).integers(2 ** 32, size=10_000),
    ])
    expected = np.array([
        np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
        for seed in seeds])
    got = seed_words(seeds)
    assert got.dtype == np.uint64 and got.shape == (seeds.size, 4)
    assert np.array_equal(got, expected)
    assert seed_words([]).shape == (0, 4)


@pytest.mark.parametrize("seeds", [[-1], [2 ** 32], [3, 2 ** 40], [0.5]])
def test_seed_words_reject_a_seed_outside_one_word(seeds):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        seed_words(seeds)


def _specs(count, kind):
    """``count`` specs over two small shards, seeds spread over
    [0, 2**31) as the engine draws them."""
    rng = np.random.default_rng(count)
    if kind == "batch":
        shards = [(rng.normal(size=(size, 3)).astype(np.float32),
                   rng.integers(0, 4, size=size)) for size in (5, 12)]
    else:
        shards = [(rng.integers(0, 30, size=(size, 6, 4)),
                   rng.integers(0, 30, size=(size, 6, 4))) for size in (3, 7)]
    devices = make_scenario_devices({"A": 2, "B": 2}, rng)
    seeds = rng.integers(2 ** 31, size=count)
    return [
        WorkerSpec(worker_id=index, seed=int(seed),
                   shard_inputs=shards[index % 2][0],
                   shard_targets=shards[index % 2][1], batch_size=4,
                   device=devices[index % 4], jitter_sigma=0.08,
                   num_samples=shards[index % 2][0].shape[0],
                   iterator_kind=kind)
        for index, seed in enumerate(seeds)
    ]


def _assert_same_worker(got, want):
    assert got.worker_id == want.worker_id
    assert _state(got.rng) == _state(want.rng)
    assert _state(got.timing.rng) == _state(want.timing.rng)
    assert got.timing.link.rng is got.timing.rng
    order = getattr(want.iterator, "_order", None)
    if order is not None:
        assert np.array_equal(got.iterator._order, order)
        assert got.iterator._cursor == want.iterator._cursor
    for _ in range(6):
        (x, y), (x_want, y_want) = (got.iterator.next_batch(),
                                    want.iterator.next_batch())
        assert np.array_equal(x, x_want) and np.array_equal(y, y_want)
    assert np.array_equal(got.timing.rng.normal(size=8),
                          want.timing.rng.normal(size=8))
    assert _state(got.rng) == _state(want.rng)


@pytest.mark.parametrize("kind", ["batch", "sequence"])
@pytest.mark.parametrize("count", [1, 2, 257, 5000])
def test_batched_build_equals_the_scalar_build(count, kind):
    specs = _specs(count, kind)
    if count > 1:   # the last spec resumes a stream left mid-epoch
        donor = scalar_build(specs[-1])
        for _ in range(3):
            donor.iterator.next_batch()
        donor.timing.rng.normal(size=5)
        specs[-1].runtime_state = donor.capture_runtime_state()
    built = build_workers(specs)
    assert len(built) == count
    if count > 1:
        assert _state(built[-1].rng) == _state(donor.rng)
        assert _state(built[-1].timing.rng) == _state(donor.timing.rng)
    for spec, worker in zip(specs, built):
        _assert_same_worker(worker, scalar_build(spec))
