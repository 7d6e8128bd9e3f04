"""Inputs are a pure function of the seed (and of ``--seconds``)."""

import numpy as np
import pytest

from harness.workloads import (
    FULL_SECONDS,
    WORKLOADS,
    derive_seeds,
    get_workload,
)


def _small(workload):
    # the 100k fleet is the same code path at 10k
    return get_workload(workload.name, quick=True)


def _arrays(task):
    dataset = task.dataset
    if hasattr(dataset, "train_x"):
        return [dataset.train_x, dataset.train_y, dataset.test_x]
    return [dataset.train_tokens, dataset.test_tokens]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_identical_inputs(workload):
    workload = _small(workload)
    first, again, other = derive_seeds(17), derive_seeds(17), derive_seeds(23)
    assert first == again and first != other

    for a, b in zip(_arrays(workload.make_task(first.data)),
                    _arrays(workload.make_task(again.data))):
        assert np.array_equal(a, b)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(_arrays(workload.make_task(first.data)),
                        _arrays(workload.make_task(other.data)))
    )

    assert (workload.make_devices(first.devices)
            == workload.make_devices(again.devices))
    assert (workload.make_devices(first.devices)
            != workload.make_devices(other.devices))

    config = workload.make_config(first.config, 14, "ckpt")
    assert config == workload.make_config(again.config, 14, "ckpt")
    assert config.seed != workload.make_config(other.config, 14, "ckpt").seed
    assert config.max_rounds == 14


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_round_count_depends_only_on_seconds(workload):
    sizes = workload.sizes
    assert workload.timed_rounds(FULL_SECONDS) == sizes.full
    assert workload.timed_rounds(1) == sizes.floor
    assert workload.timed_rounds(2 * FULL_SECONDS) == 2 * sizes.full
    floor = 12 if workload.name.startswith("cnn") else 100
    assert sizes.floor == floor <= sizes.full
    assert 0 < sizes.quick <= sizes.traced < sizes.floor


def test_quick_mode_shrinks_only_the_fleet():
    assert get_workload("fleet_cohort").fleet_size == 100_000
    assert get_workload("fleet_cohort", quick=True).fleet_size == 10_000
    assert get_workload("cnn_sync_serial", quick=True) is get_workload(
        "cnn_sync_serial")
    with pytest.raises(KeyError):
        get_workload("nope")
