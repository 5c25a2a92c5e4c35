"""Unit tests for adaptive local lag (slot-mapping correctness)."""

import math

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.core.lockstep import LockstepSync


def make_site(buf_frame=6, site=0):
    return LockstepSync(
        SyncConfig(buf_frame=buf_frame), site, InputAssignment.standard(2), 1
    )


class TestSlotMapping:
    def test_fixed_lag_matches_paper_mapping(self):
        site = make_site()
        for frame in range(10):
            site.buffer_local_input(frame, frame + 1)
        for frame in range(10):
            assert site.ibuf.get(frame + 6, 0) == frame + 1

    def test_growing_lag_pads_gap_with_held_input(self):
        site = make_site(buf_frame=3)
        site.buffer_local_input(0, 0x11)  # slot 3
        site.set_local_lag(6)
        site.buffer_local_input(1, 0x22)  # slot 7; slots 4-6 padded
        for slot in (4, 5, 6):
            assert site.ibuf.get(slot, 0) == 0x11  # held previous input
        assert site.ibuf.get(7, 0) == 0x22
        assert site.last_rcv_frame[0] == 7

    def test_shrinking_lag_drops_inputs_until_caught_up(self):
        site = make_site(buf_frame=6)
        site.buffer_local_input(0, 0x01)  # slot 6
        site.set_local_lag(3)
        # Frames 1..3 target slots 4..6 (< next slot 7): dropped.
        for frame in (1, 2, 3):
            site.buffer_local_input(frame, 0xFF)
        assert site.stats.local_inputs_dropped == 3
        assert site.last_rcv_frame[0] == 6
        # Frame 4 targets slot 7: the new, shorter lag is in effect.
        site.buffer_local_input(4, 0x44)
        assert site.ibuf.get(7, 0) == 0x44

    def test_mapping_is_total_after_any_lag_schedule(self):
        """No slot may ever be skipped, whatever the lag changes."""
        site = make_site(buf_frame=4)
        schedule = {5: 8, 12: 2, 20: 6, 33: 10, 40: 3}
        for frame in range(60):
            if frame in schedule:
                site.set_local_lag(schedule[frame])
            site.buffer_local_input(frame, frame & 0xFF)
        top = site.last_rcv_frame[0]
        for slot in range(4, top + 1):
            assert site.ibuf.get(slot, 0) is not None, f"slot {slot} skipped"

    def test_no_slot_filled_twice_differently(self):
        site = make_site(buf_frame=4)
        site.buffer_local_input(0, 0x01)
        site.set_local_lag(2)
        # Would target an occupied/older slot; must drop, not conflict.
        site.buffer_local_input(1, 0x02)
        assert site.stats.local_inputs_dropped == 1

    def test_lag_change_counted_once_per_change(self):
        site = make_site()
        site.set_local_lag(8)
        site.set_local_lag(8)
        site.set_local_lag(6)
        assert site.stats.lag_changes == 2

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            make_site().set_local_lag(-1)

    def test_local_lag_frames_property(self):
        site = make_site()
        assert site.local_lag_frames == 6
        site.set_local_lag(9)
        assert site.local_lag_frames == 9


class TestConvergenceUnderLagChanges:
    def test_two_sites_with_independent_lag_schedules_converge(self):
        """Lag is private: arbitrary per-site schedules never desync."""
        config = SyncConfig(buf_frame=4)
        assignment = InputAssignment.standard(2)
        a = LockstepSync(config, 0, assignment, 1)
        b = LockstepSync(config, 1, assignment, 1)
        schedule_a = {10: 8, 25: 3, 40: 6}
        schedule_b = {7: 2, 30: 9}
        delivered_a, delivered_b = [], []
        for frame in range(120):
            if frame in schedule_a:
                a.set_local_lag(schedule_a[frame])
            if frame in schedule_b:
                b.set_local_lag(schedule_b[frame])
            a.buffer_local_input(frame, frame & 0xFF)
            b.buffer_local_input(frame, (frame << 8) & 0xFF00)
            for sender, receiver in ((a, b), (b, a)):
                message = sender.build_sync_for(receiver.site_no, force=True)
                if message is not None:
                    receiver.on_sync(message, frame / 60)
            while a.can_deliver() and len(delivered_a) < 100:
                delivered_a.append(a.deliver())
            while b.can_deliver() and len(delivered_b) < 100:
                delivered_b.append(b.deliver())
        assert len(delivered_a) == len(delivered_b) == 100
        assert delivered_a == delivered_b


class TestLagTunerHysteresis:
    """The live-RTT tuner (``repro.core.policy.LagTuner``) between the
    estimator and ``set_local_lag``: jitter must not oscillate the lag."""

    def make_tuner(self, **overrides):
        from repro.core.policy import LagTuner

        return LagTuner(SyncConfig(adaptive_lag=True, **overrides))

    def test_first_change_is_immediate(self):
        tuner = self.make_tuner()
        # RTT 200 ms → one-way 0.1 → ceil((0.1 + 0.035)·60) = 9 frames.
        assert tuner.propose(0.0, 0.100, current=6) == 9

    def test_no_change_proposed_at_target(self):
        tuner = self.make_tuner()
        assert tuner.propose(0.0, 0.100, current=9) is None

    def test_monotone_ramp_changes_at_most_once_per_window(self):
        from repro.core.policy import ADAPTIVE_WINDOW_S

        tuner = self.make_tuner()
        current = 6
        changes = []
        # RTT ramps monotonically 40→400 ms over 4 s of 20 ms samples.
        steps = 200
        for i in range(steps):
            now = i * 0.020
            one_way = (0.040 + (0.400 - 0.040) * i / steps) / 2
            proposed = tuner.propose(now, one_way, current)
            if proposed is not None:
                changes.append(now)
                current = proposed
        assert len(changes) >= 2  # the ramp does move the lag...
        # ...but never more than once per hysteresis window (the first,
        # immediate change may sit close to the second).
        for earlier, later in zip(changes[1:], changes[2:]):
            assert later - earlier >= ADAPTIVE_WINDOW_S - 1e-9

    def test_clamped_to_configured_bounds(self):
        from repro.core.policy import (
            ADAPTIVE_MARGIN,
            ADAPTIVE_MAX_BUF,
            ADAPTIVE_MIN_BUF,
        )

        tuner = self.make_tuner()
        assert tuner.propose(0.0, 10.0, current=6) == ADAPTIVE_MAX_BUF
        tuner = self.make_tuner(cfps=20)
        # Raw target would be ceil(ADAPTIVE_MARGIN·20) = 1; the floor wins.
        assert math.ceil(ADAPTIVE_MARGIN * 20) < ADAPTIVE_MIN_BUF
        assert tuner.propose(0.0, 0.0, current=6) == ADAPTIVE_MIN_BUF

    def test_live_rtt_path_suppresses_oscillation_end_to_end(self, monkeypatch):
        """Session-level: jittery 200 ms RTT must not thrash the lag — at
        the deployed window, at most one resize per window after the
        first, and far fewer resizes than pings."""
        from repro.core.inputs import PadSource, RandomSource
        from repro.core.multisite import build_session, two_player_plan
        from repro.core.policy import ADAPTIVE_WINDOW_S, LagTuner
        from repro.net.netem import NetemConfig
        from repro.emulator.machine import create_game

        changes = {}
        propose = LagTuner.propose

        def recording_propose(tuner, now, one_way, current):
            proposed = propose(tuner, now, one_way, current)
            if proposed is not None:
                changes.setdefault(id(tuner), []).append(now)
            return proposed

        monkeypatch.setattr(LagTuner, "propose", recording_propose)
        plan = two_player_plan(
            SyncConfig(adaptive_lag=True),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(1), player=0),
                PadSource(RandomSource(2), player=1),
            ],
            game_id="counter",
            max_frames=300,
        )
        session = build_session(
            plan, NetemConfig.for_rtt(0.200, jitter=0.015)
        )
        session.run(horizon=300.0)
        for vm in session.vms:
            runtime = vm.runtime
            times = changes[id(runtime._lag_tuner)]
            assert len(times) == runtime.lockstep.stats.lag_changes >= 1
            for earlier, later in zip(times[1:], times[2:]):
                assert later - earlier >= ADAPTIVE_WINDOW_S - 1e-9
            assert len(times) < runtime.rtt.samples, "lag thrashed"


class TestEndToEndAdaptive:
    def test_adaptive_session_converges(self):
        from repro.core.inputs import PadSource, RandomSource
        from repro.core.multisite import build_session, two_player_plan
        from repro.emulator.machine import create_game
        from repro.metrics.recorder import ConsistencyChecker
        from repro.net.netem import NetemConfig

        plan = two_player_plan(
            SyncConfig(adaptive_lag=True),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(1), player=0),
                PadSource(RandomSource(2), player=1),
            ],
            game_id="counter",
            max_frames=300,
        )
        session = build_session(plan, NetemConfig.for_rtt(0.200))
        session.run(horizon=300.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 300
        # The lag grew beyond the configured 6 frames to cover RTT 200 ms.
        assert max(traces[0].lags) > 6
