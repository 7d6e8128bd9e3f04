"""Eq. 8 reward behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandit.reward import eucb_reward


def test_reward_increases_as_gap_shrinks():
    near = eucb_reward(1.0, completion_time=10.0, mean_completion_time=10.5)
    far = eucb_reward(1.0, completion_time=10.0, mean_completion_time=20.0)
    assert near > far


def test_reward_sign_follows_delta_loss():
    assert eucb_reward(1.0, 10.0, 12.0) > 0
    assert eucb_reward(-1.0, 10.0, 12.0) < 0


def test_reward_zero_gap_is_finite():
    value = eucb_reward(1.0, 10.0, 10.0)
    assert np.isfinite(value)
    assert value > 0
