"""Unit tests for repro.core.rtt."""

import pytest

from repro.core.rtt import (
    CLOCK_FILTER_DEPTH,
    RTT_ALPHA,
    RttEstimator,
    from_micros,
    to_micros,
)


class TestMicros:
    def test_roundtrip(self):
        assert from_micros(to_micros(1.234567)) == pytest.approx(1.234567)

    def test_zero(self):
        assert to_micros(0.0) == 0


class TestEstimator:
    def test_first_sample_adopted(self):
        estimator = RttEstimator(0)
        ping = estimator.make_ping(now=1.0)
        pong = RttEstimator.make_pong(ping, site_no=1)
        estimator.on_pong(pong, now=1.08)
        assert estimator.rtt == pytest.approx(0.08)
        assert estimator.samples == 1

    def test_ewma_smoothing(self):
        estimator = RttEstimator(0)
        ping = estimator.make_ping(0.0)
        estimator.on_pong(RttEstimator.make_pong(ping, 1), 0.100)
        ping = estimator.make_ping(1.0)
        estimator.on_pong(RttEstimator.make_pong(ping, 1), 1.200)
        assert estimator.rtt == pytest.approx(
            (1 - RTT_ALPHA) * 0.100 + RTT_ALPHA * 0.200
        )

    def test_negative_sample_rejected(self):
        estimator = RttEstimator(0)
        ping = estimator.make_ping(5.0)
        assert estimator.on_pong(RttEstimator.make_pong(ping, 1), 4.0) is None
        assert estimator.samples == 0

    def test_ping_sequence_increments(self):
        estimator = RttEstimator(0)
        assert estimator.make_ping(0.0).seq == 0
        assert estimator.make_ping(0.1).seq == 1

    def test_pong_echoes_timestamp(self):
        estimator = RttEstimator(0, session_id=4)
        ping = estimator.make_ping(2.5)
        pong = RttEstimator.make_pong(ping, site_no=1)
        assert pong.echo_timestamp_us == ping.timestamp_us
        assert pong.seq == ping.seq
        assert pong.session_id == 4
        assert pong.sender_site == 1


class TestMinRtt:
    """The delay Algorithm 4 pairs with its least-delayed master sample."""

    @staticmethod
    def feed(estimator, samples):
        for index, sample in enumerate(samples):
            ping = estimator.make_ping(float(index))
            estimator.on_pong(RttEstimator.make_pong(ping, 1), index + sample)

    def test_initial_rtt_before_any_sample(self):
        estimator = RttEstimator(1)
        assert estimator.min_rtt == 0.0
        assert estimator.rtt == 0.0

    def test_equals_rtt_on_constant_samples(self):
        estimator = RttEstimator(1)
        self.feed(estimator, [0.040] * 12)
        assert estimator.min_rtt == pytest.approx(0.040)
        assert estimator.min_rtt == pytest.approx(estimator.rtt)

    def test_ignores_a_spike_the_mean_follows(self):
        estimator = RttEstimator(1)
        self.feed(estimator, [0.040, 0.040, 0.140, 0.040])
        assert estimator.min_rtt == pytest.approx(0.040)
        assert estimator.rtt > 0.045

    def test_forgets_an_old_minimum_after_the_window(self):
        estimator = RttEstimator(1)
        self.feed(estimator, [0.020] + [0.060] * (CLOCK_FILTER_DEPTH - 1))
        assert estimator.min_rtt == pytest.approx(0.020)
        self.feed(estimator, [0.060])
        assert estimator.min_rtt == pytest.approx(0.060)

    def test_negative_sample_is_not_windowed(self):
        estimator = RttEstimator(1)
        ping = estimator.make_ping(5.0)
        estimator.on_pong(RttEstimator.make_pong(ping, 0), 4.0)
        assert estimator.min_rtt == 0.0
