"""Table II device model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.device import (
    JETSON_TX2_MODES,
    ComputingMode,
    DeviceProfile,
)


def test_table2_has_four_modes():
    assert sorted(JETSON_TX2_MODES) == [0, 1, 2, 3]


def test_table2_frequencies_verbatim():
    mode0 = JETSON_TX2_MODES[0]
    assert mode0.denver == (2, 2.0)
    assert mode0.cortex_a57 == (4, 2.0)
    assert mode0.gpu_ghz == 1.30
    mode3 = JETSON_TX2_MODES[3]
    assert mode3.denver is None
    assert mode3.cortex_a57 == (4, 1.2)
    assert mode3.gpu_ghz == 0.85


def test_relative_speed_monotone_decreasing():
    """Capability decreases from mode 0 to mode 3 (Section V-A)."""
    speeds = [JETSON_TX2_MODES[i].relative_speed for i in range(4)]
    assert all(a > b for a, b in zip(speeds, speeds[1:]))
    assert speeds[0] == pytest.approx(1.0)


def test_flops_scale_with_relative_speed():
    m0, m3 = JETSON_TX2_MODES[0], JETSON_TX2_MODES[3]
    assert m0.flops_per_second > m3.flops_per_second
    assert m3.flops_per_second > 0


def test_device_profile_describe():
    profile = DeviceProfile(device_id=3, mode=JETSON_TX2_MODES[1],
                            bandwidth_bps=5e6, cluster="B")
    text = profile.describe()
    assert "device 3" in text
    assert "mode 1" in text
    assert "5.0 Mbps" in text
