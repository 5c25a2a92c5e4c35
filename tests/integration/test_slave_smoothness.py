"""Real-time consistency at *both* sites (the paper's Figures 1 and 2).

The master never adjusts, so its frame time is flat by construction; these
tests gate the site Algorithm 4 actually steers.  Every term between the
master beginning a frame and its input arriving at the slave (the 20 ms
send timer's phase against the 16.67 ms frame, the slice delay, queueing)
is a delay, so the slave reads the least-delayed of its last eight master
samples and pairs it with the least of its last eight RTT samples.  Reading
the newest sample instead (the estimator before ISSUE 18) made the slave
absorb the difference between two consecutive samples on every frame:
2.7 ms of deviation and a 7.6 ms mean offset at every RTT below.

Everything runs in virtual time on the paper profile (counter game, 2 ms
of compute per frame, 10 ms timer granularity), so the numbers are exact.
"""

from bisect import bisect_left
from dataclasses import replace

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, site_address, two_player_plan
from repro.emulator.machine import create_game
from repro.harness.experiment import (
    PAPER_TIMER_GRANULARITY,
    collect_metrics,
    horizon_for,
    run_point,
)
from repro.metrics.stats import mean
from repro.net.faults import FaultSchedule, Partition
from repro.net.netem import WAN_PROFILES, NetemConfig

FRAMES = 600
MS = 1e-3


def run_counter(netem, config=None, loop_delay=0.0, partition=None, seed=7):
    """One paper-profile counter session; returns the finished Session."""
    config = config if config is not None else SyncConfig.paper_defaults()
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed=seed * 2 + 1), player=0),
            PadSource(RandomSource(seed=seed * 2 + 2), player=1),
        ],
        game_id="counter",
        max_frames=FRAMES,
        frame_compute_time=0.002,
        seed=seed,
        frame_loop_delays=[0.0, loop_delay] if loop_delay else None,
        timer_granularity=PAPER_TIMER_GRANULARITY,
    )
    session = build_session(plan, netem)
    if partition is not None:
        start, end = partition
        FaultSchedule(
            partitions=[Partition(start, end, (0,), (1,))]
        ).apply_link_faults(
            session.network, {s: site_address(s) for s in (0, 1)}, [0, 1]
        )
    session.run(horizon=horizon_for(config, netem, FRAMES))
    return session


def begin_offsets(session):
    """Per frame: slave begin minus master begin, seconds (+: slave trails)."""
    master, slave = (vm.runtime.trace.begin_times for vm in session.vms)
    assert len(master) == len(slave) == FRAMES
    return [s - m for m, s in zip(master, slave)]


class TestBelowTheThreshold:
    """Figure 1: deviation ≈ 0 for RTT ≤ 90 ms — at the slave too."""

    @pytest.mark.parametrize("rtt_ms", [0, 40, 90])
    def test_slave_frame_time_is_flat_and_the_sites_stay_together(self, rtt_ms):
        result = run_point(rtt_ms * MS, frames=FRAMES)
        assert result.frame_time_mad[0] < 0.005 * MS  # the master: 0.00
        assert result.frame_time_mad[1] <= 0.5 * MS
        assert result.synchrony <= 3.0 * MS  # Figure 2's absolute average

    @pytest.mark.parametrize(
        "netem",
        [WAN_PROFILES["wan-120"], NetemConfig(delay=0.040, jitter=0.010)],
        ids=["wan-120", "40ms+-10ms"],
    )
    def test_jitter_is_filtered_not_followed(self, netem):
        result = collect_metrics(run_counter(netem), 2 * netem.delay)
        assert result.frame_time_mad[1] <= 1.0 * MS
        # The newest-sample estimator read 7.5-8.7 ms here.
        assert result.synchrony <= 5.5 * MS


class TestStartUpSkew:
    """Algorithm 4's purpose is intact: the slave absorbs start-up skew."""

    def test_slave_absorbs_100ms_and_the_master_is_not_penalised(self):
        session = run_counter(NetemConfig.for_rtt(0.040), loop_delay=0.100)
        result = collect_metrics(session, 0.040)
        assert result.frame_time_mad[0] <= 0.3 * MS
        offsets = begin_offsets(session)
        assert offsets[0] > 0.100
        tpf = session.plan.config.time_per_frame
        assert max(abs(offset) for offset in offsets[60:]) < tpf

    def test_without_algorithm4_the_master_pays(self):
        config = replace(SyncConfig.paper_defaults(), master_slave_pacing=False)
        session = run_counter(
            NetemConfig.for_rtt(0.040), config=config, loop_delay=0.100
        )
        result = collect_metrics(session, 0.040)
        assert result.frame_time_mad[0] >= 5.0 * MS


class TestAdaptiveLag:
    """Line 6 subtracts the lag the master's input actually sits at.

    With ``adaptive_lag`` both sites settle at 4 frames (RTT 40 ms) or 9
    (RTT 200 ms); subtracting the configured 6 held the slave two frames
    behind (+40 ms) or three ahead (-42 ms) of the master forever.
    """

    @pytest.mark.parametrize("rtt_ms, lag", [(40, 4), (200, 9)])
    def test_slave_tracks_the_master_at_the_lag_in_force(self, rtt_ms, lag):
        config = replace(SyncConfig.paper_defaults(), adaptive_lag=True)
        session = run_counter(NetemConfig.for_rtt(rtt_ms * MS), config=config)
        assert [
            vm.runtime.lockstep.local_lag_frames for vm in session.vms
        ] == [lag, lag]
        settled = begin_offsets(session)[FRAMES // 2 :]
        assert abs(mean(settled)) < config.time_per_frame
        assert abs(mean(settled)) <= 3.0 * MS


class TestOutage:
    def test_slave_is_back_with_the_master_after_a_short_partition(self):
        """300 ms without a datagram: both sites stall at the gate (well
        short of ``hard_stall_s``, so the sample window is *not* emptied),
        then both run flat out to pay Algorithm 3's debt back.  The
        pre-outage samples still describe the schedule the master returns
        to; the slave must settle on it, not oscillate around it."""
        heal = 4.3
        session = run_counter(NetemConfig.for_rtt(0.040), partition=(4.0, heal))
        master = session.vms[0].runtime.trace.begin_times
        stalls = [vm.runtime.trace.sync_stall for vm in session.vms]
        assert all(max(stall) > 0.2 for stall in stalls)
        offsets = begin_offsets(session)
        settled = offsets[bisect_left(master, heal + 0.75) :]
        assert len(settled) > 200
        assert mean([abs(offset) for offset in settled]) <= 3.0 * MS
        assert max(abs(offset) for offset in settled) <= 8.0 * MS
