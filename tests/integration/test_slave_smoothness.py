"""Real-time consistency at *both* sites (the paper's Figures 1 and 2).

The master never adjusts, so its frame time is flat by construction; these
tests gate the site Algorithm 4 actually steers.  Every term between the
master beginning a frame and its input arriving at the slave (the 20 ms
send timer's phase against the 16.67 ms frame, the slice delay, queueing)
is a delay, so the slave reads the least-delayed of its last 64 master
samples and pairs it with the least of its last eight RTT samples.  Reading
the newest sample instead (the estimator before ISSUE 18) made the slave
absorb the difference between two consecutive samples on every frame:
2.7 ms of deviation and a 7.6 ms mean offset at every RTT below.  The
master's grid only moves when the master itself falls behind, and then
the slave's gate waits on it: that block shortens the memory to the newest
eight samples until 64 arrive with no further block (``TestSlowMaster``).

Everything runs in virtual time on the paper profile (counter game, 2 ms
of compute per frame, 10 ms timer granularity), so the numbers are exact.
"""

from bisect import bisect_left
from dataclasses import replace

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, site_address, two_player_plan
from repro.core.pacing import SYNC_ADJUST_CLAMP_FRAMES
from repro.core.policy import build_adaptive_session
from repro.emulator.machine import create_game
from repro.harness.experiment import (
    PAPER_TIMER_GRANULARITY,
    collect_metrics,
    horizon_for,
    run_point,
)
from repro.metrics.stats import mean, mean_abs_deviation, percentile
from repro.net.faults import FaultSchedule, Partition
from repro.net.netem import WAN_PROFILES, NetemConfig, named_profile

FRAMES = 600
MS = 1e-3


def run_counter(
    netem, config=None, loop_delay=0.0, partition=None, seed=7, frames=FRAMES,
    master_overload=None,
):
    """One paper-profile counter session; returns the finished Session.

    ``master_overload``: (start, end, compute) — the master's per-frame
    compute time is ``compute`` seconds from ``start`` to ``end``."""
    config = config if config is not None else SyncConfig.paper_defaults()
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed=seed * 2 + 1), player=0),
            PadSource(RandomSource(seed=seed * 2 + 2), player=1),
        ],
        game_id="counter",
        max_frames=frames,
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
    if master_overload is not None:
        start, end, compute = master_overload
        master = session.vms[0].engine
        for at, seconds in ((start, compute), (end, master.frame_compute_time)):
            session.loop.call_at(
                at, lambda s=seconds: setattr(master, "frame_compute_time", s)
            )
    session.run(horizon=horizon_for(config, netem, frames))
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
        # Figure 2's absolute average: 0.68 / 0.78 / 0.90 ms; an eight-sample
        # memory read 1.97 / 2.13 / 2.21.
        assert result.synchrony <= 1.2 * MS

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


class TestBurstyWan:
    """A memory longer than the link's delay bursts: on ``mobile-burst`` at
    240 ms a burst that filled an eight-sample (160 ms) window moved the
    slave's estimate of the master by +60 ms and back, and the slave's frame
    time followed (MAD 0.67-0.94 ms, p99 23.1-27.1 ms on these seeds).

    Read from frame 30, as the session benchmark does.  When line 9 added
    each offset to the overrun debt Algorithm 3 had carried, the start-up
    gate stalls wound the slave up: it swung 177-262 ms past the master and
    back, with frames at the +3-frame clamp (MAD 0.39-0.58 ms)."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_delay_bursts_do_not_reach_the_slaves_frame_time(self, seed):
        session = build_adaptive_session(
            lambda: create_game("counter"),
            [PadSource(RandomSource(seed * 2 + i), i) for i in (1, 2)],
            named_profile("mobile-burst", rtt=0.240),
            frames=1200,
            seed=seed,
            game_id="counter",
        )
        session.run()
        config = session.vms[1].runtime.config
        master, slave = (vm.runtime.trace for vm in session.vms)
        times = slave.frame_times()[30:]
        # 0.09 / 0.10 / 0.19 ms, max offset 11 / 16 / 50 ms, max frame
        # 25 / 31 / 52 ms.
        assert mean_abs_deviation(times) <= 0.25 * MS
        assert percentile(times, 99.0) <= 21.0 * MS
        offsets = [s - m for m, s in zip(master.begin_times, slave.begin_times)]
        assert max(abs(offset) for offset in offsets[30:]) <= 60 * MS
        at_clamp = (1 + SYNC_ADJUST_CLAMP_FRAMES) * config.time_per_frame
        assert max(times) < at_clamp - MS


class TestSlowMaster:
    """The master really slows down: 19 ms of compute per frame for 2 s.

    Its grid moves, the slave's long memory still places it where it was,
    and the slave runs ahead until its gate waits on the master's input —
    the one observation that the memory is wrong.  That block shortens it
    to the newest eight samples.  Without the block rule a 64-deep memory
    held the slave at the gate for 2.2 s (RTT 40) and 3.7 s (RTT 120) of
    the 2 s overload, with 62 and 99 slave frames over 25 ms and a p99 of
    33-34 ms; the eight-sample memory read 0 / 0.22 s, 16 / 16 and 26.3 ms.
    """

    @pytest.mark.parametrize("rtt_ms", [40, 120])
    def test_slave_follows_a_master_that_slows_down(self, rtt_ms):
        config = SyncConfig.paper_defaults()
        session = run_counter(
            NetemConfig.for_rtt(rtt_ms * MS),
            frames=1200,
            master_overload=(5.0, 7.0, 0.019),
        )
        master, slave = (vm.runtime.trace for vm in session.vms)
        times = slave.frame_times()
        assert sum(slave.sync_stall) <= 0.3
        assert sum(1 for t in times if t > 25 * MS) <= 20
        assert percentile(times, 99.0) <= 27 * MS
        # Ahead of the master by less than the local lag, at worst.
        lead = max(m - s for m, s in zip(master.begin_times, slave.begin_times))
        assert lead < config.buf_frame * config.time_per_frame


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
        to; the slave must settle on it, not oscillate around it — nor
        overshoot it, as it did while line 9 added its offset to that debt
        (11 slave frames over 25 ms, 91 ms worst offset; now 2 and 20)."""
        heal = 4.3
        session = run_counter(NetemConfig.for_rtt(0.040), partition=(4.0, heal))
        master = session.vms[0].runtime.trace.begin_times
        stalls = [vm.runtime.trace.sync_stall for vm in session.vms]
        assert all(max(stall) > 0.2 for stall in stalls)
        times = session.vms[1].runtime.trace.frame_times()
        assert sum(1 for t in times if t > 25 * MS) <= 4
        offsets = begin_offsets(session)
        healed = offsets[bisect_left(master, heal) :]
        assert max(abs(offset) for offset in healed) <= 40 * MS
        settled = offsets[bisect_left(master, heal + 0.75) :]
        assert len(settled) > 200
        assert mean([abs(offset) for offset in settled]) <= 3.0 * MS
        assert max(abs(offset) for offset in settled) <= 8.0 * MS
