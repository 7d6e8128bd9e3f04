"""IID and non-IID data partitioning."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.data.partition import (
    iid_partition,
    label_skew_partition,
    missing_classes_partition,
    partition_dataset,
)
from repro.data.synthetic import make_synthetic_emnist, make_synthetic_mnist


def _labels(samples_per_class=100, classes=10, rng=None):
    labels = np.repeat(np.arange(classes), samples_per_class)
    return (rng or np.random.default_rng(0)).permutation(labels)


def test_iid_covers_all_indices(rng):
    labels = _labels(rng=rng)
    parts = iid_partition(labels, 5, rng)
    joined = np.concatenate(parts)
    assert np.array_equal(np.sort(joined), np.arange(labels.size))


def test_iid_label_distribution_roughly_uniform(rng):
    labels = _labels(rng=rng)
    parts = iid_partition(labels, 5, rng)
    for part in parts:
        counts = Counter(labels[part])
        assert max(counts.values()) - min(counts.values()) <= 20


def test_iid_rejects_zero_workers(rng):
    with pytest.raises(ValueError):
        iid_partition(_labels(rng=rng), 0, rng)


def test_label_skew_dominant_fraction(rng):
    # 10 workers over 10 classes: each class's supply covers one
    # worker's 80% dominant demand (the paper's default composition)
    labels = _labels(rng=rng)
    parts = label_skew_partition(labels, 10, 80.0, rng)
    for part in parts:
        counts = Counter(labels[part])
        dominant_share = counts.most_common(1)[0][1] / part.size
        assert dominant_share >= 0.7


def test_label_skew_zero_is_iid(rng):
    labels = _labels(rng=rng)
    parts = label_skew_partition(labels, 5, 0.0, rng)
    assert sum(p.size for p in parts) == labels.size


def test_label_skew_rejects_out_of_range(rng):
    with pytest.raises(ValueError):
        label_skew_partition(_labels(rng=rng), 5, 150.0, rng)


def test_label_skew_no_index_duplication(rng):
    labels = _labels(rng=rng)
    parts = label_skew_partition(labels, 5, 50.0, rng)
    joined = np.concatenate(parts)
    assert len(np.unique(joined)) == joined.size


def test_missing_classes_each_worker_lacks_y(rng):
    labels = _labels(samples_per_class=30, classes=10, rng=rng)
    parts = missing_classes_partition(labels, 4, 3, rng)
    for part in parts:
        present = set(np.unique(labels[part]))
        assert len(present) <= 7


def test_missing_classes_zero_is_iid(rng):
    labels = _labels(rng=rng)
    parts = missing_classes_partition(labels, 4, 0, rng)
    assert sum(p.size for p in parts) == labels.size


def test_missing_classes_bounds(rng):
    labels = _labels(rng=rng)
    with pytest.raises(ValueError):
        missing_classes_partition(labels, 4, 10, rng)


def test_partition_dataset_dispatch(rng):
    # enough per-class supply that each worker's dominant demand is met
    mnist = make_synthetic_mnist(train_per_class=40, test_per_class=2,
                                 rng=rng)
    parts = partition_dataset(mnist, 10, rng, non_iid_level=80)
    counts = Counter(mnist.train_y[parts[0]])
    assert counts.most_common(1)[0][1] / parts[0].size >= 0.6

    emnist = make_synthetic_emnist(train_per_class=4, test_per_class=1,
                                   num_classes=10, rng=rng)
    parts = partition_dataset(emnist, 4, rng, non_iid_level=3)
    present = set(np.unique(emnist.train_y[parts[0]]))
    assert len(present) <= 7
