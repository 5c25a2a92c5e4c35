"""Integration: the experiment harness (scaled-down paper sweeps)."""

import pytest

from repro.harness.ablations import (
    run_adaptive_lag_ablation,
    run_batching_ablation,
    run_lag_ablation,
    run_pacing_ablation,
    run_transport_ablation,
)
from repro.harness.experiment import PAPER_RTT_SWEEP, run_point
from repro.harness.report import (
    format_batching_ablation,
    format_lag_ablation,
    format_pacing_ablation,
    format_series1,
    format_series2,
    format_series3,
    format_table,
    format_transport_ablation,
    sparkline,
)
from repro.harness.series1 import find_threshold, run_series1
from repro.harness.series2 import run_series2
from repro.harness.series3 import run_series3

FRAMES = 240  # scaled down from the paper's 3600 for test speed


class TestRunPoint:
    def test_metrics_populated(self):
        result = run_point(0.040, frames=FRAMES)
        assert result.frames == FRAMES
        assert result.frames_verified == FRAMES
        assert set(result.frame_time_mean) == {0, 1}
        assert result.fps[0] > 0
        assert result.synchrony >= 0

    def test_good_network_hits_cfps(self):
        result = run_point(0.040, frames=FRAMES)
        assert result.frame_time_mean[0] == pytest.approx(1 / 60, rel=0.02)
        assert result.frame_time_mad[0] < 0.002

    def test_bad_network_degrades(self):
        good = run_point(0.040, frames=FRAMES)
        bad = run_point(0.400, frames=FRAMES)
        assert bad.frame_time_mean[0] > good.frame_time_mean[0] * 1.3
        assert bad.frame_time_mad[0] > good.frame_time_mad[0]
        assert bad.synchrony > good.synchrony

    def test_describe_smoke(self):
        assert "RTT" in run_point(0.0, frames=60).describe()

    def test_paper_sweep_constants(self):
        assert PAPER_RTT_SWEEP[0] == 0.0
        assert PAPER_RTT_SWEEP[-1] == 0.400
        assert 0.140 in PAPER_RTT_SWEEP
        assert len(PAPER_RTT_SWEEP) == 25


class TestSeries:
    def test_series1_shape(self):
        rows = run_series1(rtts=[0.0, 0.060, 0.300], frames=FRAMES)
        assert [r.rtt for r in rows] == [0.0, 0.060, 0.300]
        assert rows[0].frame_time_mean == pytest.approx(1 / 60, rel=0.02)
        assert rows[-1].frame_time_mean > rows[0].frame_time_mean
        assert rows[-1].frame_time_mad > rows[0].frame_time_mad
        # Both sites are read: the slave holds the master's rate, and its
        # deviation (Algorithm 4's corrections) is visible, not averaged away.
        assert rows[0].slave_frame_time_mean == pytest.approx(1 / 60, rel=0.02)
        assert rows[0].slave_frame_time_mad > rows[0].frame_time_mad

    def test_series1_threshold_detection(self):
        rows = run_series1(rtts=[0.0, 0.060, 0.300], frames=FRAMES)
        assert find_threshold(rows) == 0.300
        assert find_threshold(rows[:2]) is None

    def test_series2_shape(self):
        rows = run_series2(rtts=[0.020, 0.300], frames=FRAMES)
        assert rows[0].synchrony < 0.010  # paper: <10ms below threshold
        assert rows[1].synchrony > rows[0].synchrony

    def test_series3_loss_sweep(self):
        rows = run_series3(losses=[0.0, 0.10], rtt=0.030, frames=FRAMES)
        assert rows[0].retransmitted_inputs <= rows[1].retransmitted_inputs
        assert all(r.frames_verified == FRAMES for r in rows)


class TestAblations:
    def test_pacing_ablation_shows_master_penalty(self):
        rows = run_pacing_ablation(start_skews=[0.15], rtt=0.030, frames=300)
        with_alg4 = next(r for r in rows if r.master_slave_pacing)
        without = next(r for r in rows if not r.master_slave_pacing)
        # §3.2: without Algorithm 4 the earlier (master) site suffers; the
        # sites also stay further apart.
        assert without.synchrony > with_alg4.synchrony

    def test_transport_ablation_tcp_worse_under_loss(self):
        rows = run_transport_ablation(losses=[0.05], rtt=0.030, frames=240)
        udp = next(r for r in rows if r.transport == "udp" and r.loss == 0.05)
        tcp = next(r for r in rows if r.transport == "tcp" and r.loss == 0.05)
        assert udp.frames_verified == 240
        assert tcp.frames_verified == 240
        assert tcp.frame_time_mad >= udp.frame_time_mad

    def test_lag_ablation_more_lag_more_tolerance(self):
        rows = run_lag_ablation(buf_frames=[0, 9], rtt=0.100, frames=240)
        short_lag = next(r for r in rows if r.buf_frame == 0)
        long_lag = next(r for r in rows if r.buf_frame == 9)
        assert short_lag.frame_time_mean > long_lag.frame_time_mean

    def test_adaptive_lag_ablation_shapes(self):
        rows = run_adaptive_lag_ablation(frames=420)
        steady_fixed = next(
            r for r in rows if r.scenario == "steady" and not r.adaptive
        )
        steady_adaptive = next(
            r for r in rows if r.scenario == "steady" and r.adaptive
        )
        # Adaptive lag rescues pacing on a steady link beyond the fixed
        # threshold, at the cost of higher input latency.
        assert steady_adaptive.frame_time_mad < steady_fixed.frame_time_mad
        assert steady_adaptive.mean_lag > steady_fixed.mean_lag

    def test_batching_ablation_smaller_flush_better(self):
        rows = run_batching_ablation(
            send_intervals=[0.002, 0.040], rtt=0.160, frames=240
        )
        fast = next(r for r in rows if r.send_interval == 0.002)
        slow = next(r for r in rows if r.send_interval == 0.040)
        assert fast.frame_time_mad <= slow.frame_time_mad
        assert fast.datagrams_sent > slow.datagrams_sent


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_sparkline_length(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "  "

    def test_formatters_smoke(self):
        s1 = run_series1(rtts=[0.0], frames=60)
        s2 = run_series2(rtts=[0.0], frames=60)
        s3 = run_series3(losses=[0.0], frames=60)
        assert "Figure 1" in format_series1(s1)
        assert "slave_mad(ms)" in format_series1(s1)
        assert "Figure 2" in format_series2(s2)
        assert "loss" in format_series3(s3)
        pacing = run_pacing_ablation(start_skews=[0.0], frames=60)
        assert "Algorithm 4" in format_pacing_ablation(pacing)
        transport = run_transport_ablation(losses=[0.0], frames=60)
        assert "TCP" in format_transport_ablation(transport)
        lag = run_lag_ablation(buf_frames=[6], frames=60)
        assert "BufFrame" in format_lag_ablation(lag)
        batching = run_batching_ablation(send_intervals=[0.020], frames=60)
        assert "batching" in format_batching_ablation(batching)
