"""Data partitioning across workers: IID and the paper's non-IID levels.

Section V-F defines non-IIDness by a level ``y``:

- MNIST / CIFAR-10: "y% of the data on each worker belong to one label
  and the remaining data belong to other labels"; y = 0 is IID.
- EMNIST / Tiny-ImageNet: "each worker lacks y classes of data samples".
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.data.synthetic import ImageDataset


def iid_partition(labels: np.ndarray, num_workers: int,
                  rng: np.random.Generator) -> List[np.ndarray]:
    """Uniformly random equal-size split of sample indices."""
    if num_workers <= 0:
        raise ValueError(f"need at least one worker, got {num_workers}")
    order = rng.permutation(labels.shape[0])
    return [np.sort(part) for part in np.array_split(order, num_workers)]


def label_skew_partition(labels: np.ndarray, num_workers: int, skew_percent: float,
                         rng: np.random.Generator) -> List[np.ndarray]:
    """Label-skew non-IID split (MNIST / CIFAR-10 construction).

    Each worker is assigned a dominant label (round-robin over classes);
    ``skew_percent`` of its samples come from that label, the rest are
    drawn uniformly from the other classes.
    """
    if not 0.0 <= skew_percent <= 100.0:
        raise ValueError(f"skew must be in [0, 100], got {skew_percent}")
    if skew_percent == 0.0:
        return iid_partition(labels, num_workers, rng)

    classes = np.unique(labels)
    pools: Dict[int, List[int]] = {
        int(c): list(rng.permutation(np.flatnonzero(labels == c)))
        for c in classes
    }
    per_worker = labels.shape[0] // num_workers
    dominant_count = int(round(per_worker * skew_percent / 100.0))

    parts: List[List[int]] = [[] for _ in range(num_workers)]
    # dominant-label pass
    for worker in range(num_workers):
        dominant = int(classes[worker % classes.size])
        take = min(dominant_count, len(pools[dominant]))
        parts[worker].extend(pools[dominant][:take])
        del pools[dominant][:take]
    # fill the remainder uniformly from whatever is left
    leftovers = [idx for pool in pools.values() for idx in pool]
    leftovers = list(rng.permutation(leftovers))
    for worker in range(num_workers):
        need = per_worker - len(parts[worker])
        if need > 0:
            parts[worker].extend(leftovers[:need])
            del leftovers[:need]
    return [np.sort(np.asarray(part, dtype=np.intp)) for part in parts]


def missing_classes_partition(labels: np.ndarray, num_workers: int,
                              missing: int,
                              rng: np.random.Generator) -> List[np.ndarray]:
    """Missing-classes non-IID split (EMNIST / Tiny-ImageNet construction).

    Each worker lacks ``missing`` classes (chosen independently at
    random); its samples are drawn from the remaining classes only.
    """
    classes = np.unique(labels)
    if missing < 0 or missing >= classes.size:
        raise ValueError(
            f"missing must be in [0, {classes.size - 1}], got {missing}"
        )
    if missing == 0:
        return iid_partition(labels, num_workers, rng)

    by_class = {int(c): np.flatnonzero(labels == c) for c in classes}
    per_worker = labels.shape[0] // num_workers
    parts: List[np.ndarray] = []
    for _ in range(num_workers):
        banned = set(
            int(c) for c in rng.choice(classes, size=missing, replace=False)
        )
        allowed = np.concatenate(
            [by_class[int(c)] for c in classes if int(c) not in banned]
        )
        chosen = rng.choice(allowed, size=min(per_worker, allowed.size),
                            replace=False)
        parts.append(np.sort(chosen.astype(np.intp)))
    return parts


def partition_dataset(dataset: ImageDataset, num_workers: int,
                      rng: np.random.Generator,
                      non_iid_level: float = 0.0) -> List[np.ndarray]:
    """Dispatch to the paper's partitioning rule for this dataset.

    ``non_iid_level`` is the paper's ``y``: a percentage for
    MNIST/CIFAR-10, a class count for EMNIST/Tiny-ImageNet; 0 = IID.
    """
    labels = dataset.train_y
    if non_iid_level == 0:
        return iid_partition(labels, num_workers, rng)
    if dataset.name in ("mnist", "cifar10"):
        return label_skew_partition(labels, num_workers, non_iid_level, rng)
    return missing_classes_partition(labels, num_workers, int(non_iid_level), rng)
