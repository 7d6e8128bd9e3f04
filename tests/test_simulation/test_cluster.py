"""Clusters A/B/C and the heterogeneity scenarios."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.cluster import (
    CLUSTERS,
    HETEROGENEITY_SCENARIOS,
    make_cluster_devices,
    make_scenario_devices,
    scenario_table,
)
from repro.simulation.device import JETSON_TX2_MODES, DeviceProfile
from repro.simulation.network import bandwidth_for_distance


def test_cluster_specs_match_fig3():
    assert CLUSTERS["A"].modes == (0, 1)
    assert CLUSTERS["B"].modes == (1, 2)
    assert CLUSTERS["C"].modes == (2, 3)
    # distance ranges increase A -> B -> C
    assert CLUSTERS["A"].distance_range_m[1] <= CLUSTERS["B"].distance_range_m[1]
    assert CLUSTERS["B"].distance_range_m[1] <= CLUSTERS["C"].distance_range_m[1]


def test_scenarios_match_section_5e():
    assert HETEROGENEITY_SCENARIOS["low"] == {"A": 10}
    assert HETEROGENEITY_SCENARIOS["medium"] == {"A": 5, "B": 5}
    assert HETEROGENEITY_SCENARIOS["high"] == {"A": 3, "B": 3, "C": 4}


def test_cluster_devices_modes_in_spec(rng):
    devices = make_cluster_devices("C", 20, rng)
    assert len(devices) == 20
    assert all(d.mode.index in (2, 3) for d in devices)
    assert all(d.cluster == "C" for d in devices)


def test_unknown_cluster_raises(rng):
    with pytest.raises(KeyError):
        make_cluster_devices("Z", 1, rng)


def test_scenario_device_ids_unique(rng):
    devices = make_scenario_devices("high", rng)
    ids = [d.device_id for d in devices]
    assert len(set(ids)) == len(ids) == 10


def test_scenario_mapping_form(rng):
    devices = make_scenario_devices({"A": 2, "C": 3}, rng)
    clusters = sorted(d.cluster for d in devices)
    assert clusters == ["A", "A", "C", "C", "C"]


def test_unknown_scenario_raises(rng):
    with pytest.raises(KeyError):
        make_scenario_devices("extreme", rng)


def test_scenario_reproducible_from_seed():
    a = make_scenario_devices("medium", np.random.default_rng(3))
    b = make_scenario_devices("medium", np.random.default_rng(3))
    for da, db in zip(a, b):
        assert da.mode.index == db.mode.index
        assert da.bandwidth_bps == pytest.approx(db.bandwidth_bps)


def test_high_scenario_slower_than_low_on_average(rng):
    low = make_scenario_devices("low", np.random.default_rng(1))
    high = make_scenario_devices("high", np.random.default_rng(1))
    mean_speed = lambda ds: np.mean([d.mode.relative_speed for d in ds])
    mean_bw = lambda ds: np.mean([d.bandwidth_bps for d in ds])
    assert mean_speed(low) > mean_speed(high)
    assert mean_bw(low) > mean_bw(high)


def test_scenario_table_rows(rng):
    devices = make_scenario_devices("low", rng)
    rows = scenario_table(devices)
    assert len(rows) == 10
    assert all(len(row) == 4 for row in rows)


@pytest.mark.parametrize("seed", [5, 17, 123456789])
@pytest.mark.parametrize("scenario", ["low", "medium", "high",
                                      {"A": 500, "B": 500}],
                         ids=["low", "medium", "high", "fleet"])
def test_devices_match_an_inline_choice_reference(seed, scenario):
    """Drawing the mode as ``modes[integers(len(modes))]`` is bit-equal
    to the ``rng.choice(modes)`` draw the scenarios were defined with."""
    composition = (HETEROGENEITY_SCENARIOS[scenario]
                   if isinstance(scenario, str) else scenario)
    rng = np.random.default_rng(seed)
    reference = []
    for cluster in sorted(composition):
        spec = CLUSTERS[cluster]
        for _ in range(composition[cluster]):
            mode_index = int(rng.choice(spec.modes))
            distance = float(rng.uniform(*spec.distance_range_m))
            reference.append(DeviceProfile(
                device_id=len(reference), mode=JETSON_TX2_MODES[mode_index],
                bandwidth_bps=bandwidth_for_distance(distance),
                cluster=cluster))
    assert make_scenario_devices(scenario, np.random.default_rng(seed)) \
        == reference
