"""Simulated clock."""

from __future__ import annotations

import pytest

from repro.simulation.clock import SimulationClock


def test_advance_accumulates():
    clock = SimulationClock()
    clock.advance(5.0)
    clock.advance(2.5)
    assert clock.now == pytest.approx(7.5)


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        SimulationClock().advance(-1.0)


def test_advance_to_absolute():
    clock = SimulationClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0
    with pytest.raises(ValueError):
        clock.advance_to(5.0)

