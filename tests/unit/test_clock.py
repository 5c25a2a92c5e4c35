"""Unit tests for repro.sim.clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.5).now() == 5.5

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(1.25)
        assert clock.now() == 1.25

    def test_advance_to_same_instant_is_allowed(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.advance(1.0)
        assert clock.now() == 1.0

    def test_advance_backwards_raises(self):
        clock = SimClock()
        clock.advance(2.0)
        with pytest.raises(ValueError):
            clock.advance(1.0)

    def test_advance_is_cumulative(self):
        clock = SimClock()
        for step in range(1, 11):
            clock.advance(float(step))
        assert clock.now() == 10.0
