"""Unit tests for repro.core.pacing — Algorithms 3 and 4."""

import random

import pytest

from repro.core.config import SyncConfig
from repro.core.pacing import SYNC_ADJUST_CLAMP_FRAMES, FramePacer

TPF = 1 / 60


def make_pacer(site=0, **overrides):
    return FramePacer(SyncConfig(**overrides), site)


class TestAlgorithm3:
    """EndFrameTiming."""

    def test_fast_frame_waits_out_remainder(self):
        pacer = make_pacer()
        pacer.begin_frame(10.0, 0, None, 0.0)
        wait = pacer.end_frame(10.0 + 0.002)  # frame took 2 ms
        assert wait == pytest.approx(TPF - 0.002)
        assert pacer.adjust_time_delta == 0.0

    def test_exact_frame_no_wait(self):
        pacer = make_pacer()
        pacer.begin_frame(0.0, 0, None, 0.0)
        wait = pacer.end_frame(TPF)
        assert wait == pytest.approx(0.0)

    def test_overrun_carries_negative_adjust(self):
        pacer = make_pacer()
        pacer.begin_frame(0.0, 0, None, 0.0)
        wait = pacer.end_frame(0.030)  # 13.3 ms over
        assert wait == 0.0
        assert pacer.adjust_time_delta == pytest.approx(TPF - 0.030)
        assert pacer.stats.overruns == 1

    def test_following_frame_compensates(self):
        """A 30 ms frame followed by fast frames recovers the schedule."""
        pacer = make_pacer()
        now = 0.0
        pacer.begin_frame(now, 0, None, 0.0)
        now = 0.030
        pacer.end_frame(now)
        # Next frame executes instantly; its wait shrinks by the debt.
        pacer.begin_frame(now, 1, None, 0.0)
        wait = pacer.end_frame(now)
        assert wait == pytest.approx(2 * TPF - 0.030)

    def test_long_term_rate_is_cfps(self):
        """Alternating slow/fast frames must average to CFPS exactly."""
        pacer = make_pacer()
        now = 0.0
        begins = []
        for frame in range(100):
            pacer.begin_frame(now, frame, None, 0.0)
            begins.append(now)
            compute = 0.005 if frame % 2 else 0.020  # every other frame overruns
            now += compute
            now += pacer.end_frame(now)
        span = begins[-1] - begins[0]
        assert span / 99 == pytest.approx(TPF, rel=0.02)

    def test_end_before_begin_raises(self):
        pacer = make_pacer()
        with pytest.raises(RuntimeError):
            pacer.end_frame(0.0)

    def test_stats_accumulate(self):
        pacer = make_pacer()
        for frame in range(5):
            pacer.begin_frame(frame * TPF, frame, None, 0.0)
            pacer.end_frame(frame * TPF + 0.001)
        assert pacer.stats.frames == 5
        assert pacer.stats.total_wait > 0


class TestAlgorithm4:
    """BeginFrameTiming: master/slave rate sync."""

    def test_master_never_adjusts(self):
        pacer = make_pacer(site=0)
        adjust = pacer.begin_frame(1.0, 10, master_sample=(30, 0.9), rtt=0.05)
        assert adjust == 0.0
        assert pacer.is_master

    def test_slave_without_sample_does_not_adjust(self):
        pacer = make_pacer(site=1)
        assert pacer.begin_frame(1.0, 10, None, 0.05) == 0.0

    def test_slave_in_sync_zero_adjust(self):
        """Perfectly synchronized slave: SyncAdjustTimeDelta == 0."""
        pacer = make_pacer(site=1)
        rtt = 0.060
        # Master's input for master-frame 10 (buffered at 16) sent at t=0.5,
        # received at 0.5 + rtt/2 = 0.53.  At now, the master has advanced
        # (now - 0.5) / TPF frames beyond 10; the slave sits exactly there.
        now = 0.55
        master_frame_then = 10
        slave_frame = master_frame_then + round((now - 0.5) / TPF)
        sample = (master_frame_then + 6, 0.5 + rtt / 2)
        adjust = pacer.begin_frame(now, slave_frame, sample, rtt)
        assert adjust == pytest.approx(0.0, abs=0.002)

    def test_slave_behind_speeds_up(self):
        """Slave behind the master: negative adjust (shorter frames)."""
        pacer = make_pacer(site=1)
        sample = (16, 0.53)  # master at frame 10 at t=0.50 (rtt 0.06)
        # Slave only at frame 8 when the master should be ~13.
        adjust = pacer.begin_frame(0.55, 8, sample, 0.060)
        assert adjust < 0

    def test_slave_ahead_slows_down(self):
        pacer = make_pacer(site=1)
        sample = (16, 0.53)
        adjust = pacer.begin_frame(0.55, 20, sample, 0.060)
        assert adjust > 0

    def test_clamp_bounds_adjust(self):
        pacer = make_pacer(site=1)
        sample = (16, 0.53)
        adjust = pacer.begin_frame(0.55, 200, sample, 0.060)  # wildly ahead
        assert adjust == pytest.approx(SYNC_ADJUST_CLAMP_FRAMES * TPF)
        assert pacer.stats.sync_adjust_clamped == 1

    def test_pacing_disabled_by_config(self):
        pacer = make_pacer(site=1, master_slave_pacing=False)
        sample = (16, 0.53)
        assert pacer.begin_frame(0.55, 200, sample, 0.060) == 0.0

    def test_adjust_folds_into_adjust_time_delta(self):
        """Line 9 on a slave that enters the frame on time (no debt
        carried): AdjustTimeDelta ends up equal to SyncAdjustTimeDelta."""
        pacer = make_pacer(site=1)
        sample = (16, 0.53)
        adjust = pacer.begin_frame(0.55, 20, sample, 0.060)
        assert pacer.adjust_time_delta == pytest.approx(adjust)


class TestNoWindup:
    """Line 9 replaces the debt Algorithm 3 carried into a slave's frame:
    the offset is measured at this begin, so it already contains it."""

    def indebted_slave(self):
        """A slave whose frame 11 (begun at 0.50) ended at 0.53: 13.3 ms
        of overrun debt carried into frame 12."""
        pacer = make_pacer(site=1)
        pacer.begin_frame(0.50, 11, None, 0.060)
        assert pacer.end_frame_deadline(0.53) is None
        assert pacer.adjust_time_delta == pytest.approx(0.50 + TPF - 0.53)
        return pacer

    def test_frame_ends_on_the_masters_grid(self):
        pacer = self.indebted_slave()
        # The master began frame 10 at 0.50 (sample (16, 0.53), rtt 60 ms),
        # so its grid puts frame 12 at 0.50 + 2 TPF; the slave is 6.7 ms late.
        adjust = pacer.begin_frame(0.54, 12, (16, 0.53), 0.060)
        assert adjust == pytest.approx(0.50 + 2 * TPF - 0.54)
        assert pacer.adjust_time_delta == adjust
        assert pacer.end_frame_deadline(0.541) == pytest.approx(0.50 + 3 * TPF)

    def test_clamped_correction_replaces_the_debt(self):
        pacer = self.indebted_slave()
        adjust = pacer.begin_frame(0.54, 2, (16, 0.53), 0.060)  # far behind
        assert adjust == pytest.approx(-SYNC_ADJUST_CLAMP_FRAMES * TPF)
        assert pacer.adjust_time_delta == adjust
        assert pacer.stats.sync_adjust_clamped == 1

    def test_master_keeps_its_debt(self):
        pacer = make_pacer(site=0)
        pacer.begin_frame(0.50, 11, None, 0.060)
        pacer.end_frame(0.53)
        debt = pacer.adjust_time_delta
        assert pacer.begin_frame(0.53, 12, (16, 0.53), 0.060) == 0.0
        assert pacer.adjust_time_delta == debt


class TestConvergence:
    def test_skewed_slave_converges_to_master_schedule(self):
        """Simulate Algorithm 4's closed loop: a slave starting 80 ms late
        catches up with the master within a few frames."""
        config = SyncConfig()
        slave = FramePacer(config, 1)
        skew = 0.080
        master_start = 0.0
        now = master_start + skew  # slave begins late
        frame = 0
        offsets = []
        for __ in range(60):
            master_frame_now = (now - master_start) / TPF
            # Sample: the master's newest input arrived essentially fresh.
            sample = (int(master_frame_now) + config.buf_frame, now)
            slave.begin_frame(now, frame, sample, 0.0)
            offsets.append(frame - master_frame_now)
            now += slave.end_frame(now)  # instant compute
            frame += 1
        # Early offset ≈ -skew/TPF ≈ -4.8 frames; final ≈ 0.
        assert offsets[0] < -3
        assert abs(offsets[-1]) < 1.0

    def test_slave_released_from_a_gate_does_not_overshoot(self):
        """A slave on the master's grid is held at its gate for 300 ms, so
        it enters the next frame carrying Algorithm 3's debt; released with
        2 ms frames it must come back to the grid, not run past it."""
        config = SyncConfig()
        slave = FramePacer(config, 1)
        now, offsets = 0.0, []
        for frame in range(120):
            # The master begins frame m at m·TPF; its input for m arrives
            # at once (rtt 0), so line 7 measures the true grid offset.
            m = int(now / TPF + 1e-9)
            sample = (m + config.buf_frame, m * TPF)
            slave.begin_frame(now, frame, sample, 0.0)
            offsets.append(now - frame * TPF)  # > 0: behind the master
            if frame == 10:
                now += 0.300  # the gate waits on the master's input
            now += 0.002
            now += slave.end_frame(now)
        after = offsets[11:]
        assert after[0] > 0.25
        assert min(after) > -TPF  # never more than one frame ahead
        assert abs(offsets[-1]) < 1e-6


class TestCarriedLateness:
    """The one deliberate extension of Algorithm 3: a frame timer that
    fires late is an overrun, carried where Algorithm 4 does not run."""

    def paced(self, pacer, lateness, carry):
        """Begin times of 600 timer-driven 2 ms frames, each timer firing
        ``lateness()`` seconds after the deadline Algorithm 3 returned."""
        due, begins = 0.0, []
        for frame in range(600):
            now = due + lateness()
            pacer.begin_frame(now, frame, None, 0.0, now - due if carry else 0.0)
            begins.append(now)
            due = pacer.end_frame_deadline(now + 0.002)
        return begins

    def test_master_begun_late_ends_that_much_sooner(self):
        pacer = make_pacer()
        pacer.begin_frame(10.003, 0, None, 0.0, 0.003)  # due at 10.0
        assert pacer.end_frame_deadline(10.004) == pytest.approx(10.0 + TPF)
        # On time, so nothing is left to carry into the frame after.
        assert pacer.adjust_time_delta == 0.0

    def test_long_run_rate_is_cfps_under_random_lateness(self):
        rate = {}
        for carry in (True, False):
            rng = random.Random(7)
            begins = self.paced(make_pacer(), lambda: rng.uniform(0.0, 0.002), carry)
            rate[carry] = (begins[-1] - begins[0]) / (len(begins) - 1)
        assert rate[True] == pytest.approx(TPF, rel=1e-3)
        # Not carried, the same lateness accumulates: 1 ms on every frame.
        assert rate[False] == pytest.approx(TPF + 0.001, rel=0.01)

    def test_slave_with_a_master_sample_ignores_it(self):
        sample = (16, 0.53)
        plain, late = make_pacer(site=1), make_pacer(site=1)
        adjust = plain.begin_frame(0.55, 20, sample, 0.060)
        assert late.begin_frame(0.55, 20, sample, 0.060, 0.003) == adjust
        assert late.adjust_time_delta == plain.adjust_time_delta
        assert late.end_frame(0.551) == plain.end_frame(0.551)

    @pytest.mark.parametrize("overrides", [{}, {"master_slave_pacing": False}])
    def test_slave_not_running_algorithm_4_carries_it(self, overrides):
        pacer = make_pacer(site=1, **overrides)
        sample = (16, 0.53) if overrides else None
        assert pacer.begin_frame(10.003, 0, sample, 0.060, 0.003) == 0.0
        assert pacer.end_frame_deadline(10.004) == pytest.approx(10.0 + TPF)

    def test_zero_lateness_is_the_papers_arithmetic_bit_for_bit(self):
        """Virtual time fires every frame timer at ``now == due``; with
        ``late == 0.0`` no float may differ from Algorithm 3 as printed
        (written out here by hand), overruns and signed zeros included."""
        rng = random.Random(3)
        pacer, now, adjust = make_pacer(), 0.0, 0.0
        for frame in range(2000):
            pacer.begin_frame(now, frame, None, 0.04, 0.0)
            adjust += 0.0  # line 9 with SyncAdjustTimeDelta = 0
            assert pacer.adjust_time_delta.hex() == adjust.hex()
            end = now + pacer.config.time_per_frame + adjust
            now += rng.choice([0.0, rng.uniform(0.0, 0.03)])  # some overrun
            adjust = end - now if end < now else 0.0
            deadline = pacer.end_frame_deadline(now)
            assert pacer.adjust_time_delta.hex() == adjust.hex()
            if end > now:
                assert deadline.hex() == (now + (end - now)).hex()
                now = deadline
            else:
                assert deadline is None

    def test_lateness_beyond_a_frame_is_an_overrun(self):
        """A 40 ms late wake-up costs what a 40 ms frame costs in
        Algorithm 3: the following frames begin at once until it is paid."""
        pacer = make_pacer()
        pacer.begin_frame(10.040, 0, None, 0.0, 0.040)  # due at 10.0
        assert pacer.end_frame_deadline(10.041) is None
        assert pacer.adjust_time_delta == pytest.approx(10.0 + TPF - 10.041)
        assert pacer.stats.overruns == 1
        pacer.begin_frame(10.041, 1, None, 0.0)
        assert pacer.end_frame_deadline(10.042) is None
        pacer.begin_frame(10.042, 2, None, 0.0)
        # Three frames were due by 10.0 + 3/60: the schedule is whole again.
        assert pacer.end_frame_deadline(10.043) == pytest.approx(10.0 + 3 * TPF)
