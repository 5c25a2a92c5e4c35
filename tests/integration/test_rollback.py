"""Integration: the rollback/timewarp extension."""

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import SessionPlan, build_session, two_player_plan
from repro.core.rollback import (
    SPECULATION_WINDOW,
    InputPredictor,
    SyncInput,
    build_rollback_session,
)
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig

from tests.predictors import use_predictor


def rollback_session(game, sources, netem, frames, seed, window=SPECULATION_WINDOW):
    """Zero-lag sites, one per source, each speculating ``window`` frames ahead."""
    plan = SessionPlan(
        config=SyncConfig(buf_frame=0),
        assignment=InputAssignment.standard(len(sources)),
        machines=[create_game(game) for __ in sources],
        sources=sources,
        game_id=game,
        max_frames=frames,
        seed=seed,
        consistency=[SyncInput(create_game(game), window) for __ in sources],
    )
    return build_session(plan, netem)


def run_rollback(
    game="counter", frames=240, rtt=0.060, toggle_p=0.08, seed=5,
    window=SPECULATION_WINDOW, loss=0.0,
):
    session = rollback_session(
        game,
        [
            PadSource(RandomSource(seed, toggle_p=toggle_p), 0),
            PadSource(RandomSource(seed + 1, toggle_p=toggle_p), 1),
        ],
        NetemConfig(delay=rtt / 2, loss=loss),
        frames,
        seed,
        window,
    )
    session.run(horizon=600.0)
    return session


class TestConsistency:
    @pytest.mark.parametrize("rtt_ms", [0, 40, 120, 240])
    def test_shadow_replicas_identical(self, rtt_ms):
        session = run_rollback(rtt=rtt_ms / 1000)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240

    @pytest.mark.parametrize("game", ["pong-py", "brawler"])
    def test_real_games_roll_back_consistently(self, game):
        session = run_rollback(game=game, frames=180)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 180

    def test_rollback_matches_lockstep_outcome(self):
        """The shadow's state sequence equals a plain lockstep run."""
        rollback = run_rollback(frames=200, rtt=0.050, seed=9)
        plan = two_player_plan(
            SyncConfig(buf_frame=0),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(9, toggle_p=0.08), 0),
                PadSource(RandomSource(10, toggle_p=0.08), 1),
            ],
            game_id="counter",
            max_frames=200,
            seed=9,
        )
        lockstep = build_session(plan, NetemConfig.for_rtt(0.050))
        lockstep.run(horizon=600.0)
        assert (
            rollback.vms[0].runtime.trace.checksums
            == lockstep.vms[0].runtime.trace.checksums
        )

    def test_survives_loss(self):
        session = run_rollback(frames=240, rtt=0.040, loss=0.15)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240


class TestLatencyAndCost:
    def test_zero_input_lag(self):
        """A scripted press appears in the presser's own frame — the whole
        point of rollback vs the paper's 100 ms local lag."""
        session = run_rollback(frames=120, rtt=0.080)
        vm = session.vms[0]
        # Local inputs land in their own frame's slot.
        assert vm.runtime.lockstep.local_lag_frames == 0

    def test_paced_at_cfps(self):
        session = run_rollback(frames=240, rtt=0.080)
        for vm in session.vms:
            assert mean(vm.runtime.trace.frame_times()) == pytest.approx(
                1 / 60, rel=0.03
            )

    def test_rollback_work_scales_with_rtt(self):
        near = run_rollback(frames=240, rtt=0.020)
        far = run_rollback(frames=240, rtt=0.240)
        assert (
            far.vms[0].engine.consistency.stats.replayed_frames
            > near.vms[0].engine.consistency.stats.replayed_frames
        )
        assert (
            far.vms[0].engine.consistency.stats.max_replay_depth
            >= near.vms[0].engine.consistency.stats.max_replay_depth
        )

    def test_quiet_inputs_cause_no_rollbacks(self):
        """Hold-last prediction is perfect when nobody touches the pad."""
        session = run_rollback(frames=240, rtt=0.120, toggle_p=0.0)
        for vm in session.vms:
            assert vm.engine.consistency.stats.rollbacks == 0
            assert vm.engine.consistency.stats.replayed_frames == 0

    def test_speculation_window_bounds_runahead(self):
        session = run_rollback(frames=240, rtt=0.400, window=10)
        for vm in session.vms:
            stats = vm.engine.consistency.stats
            assert stats.max_replay_depth <= 10 + 1
            assert stats.speculation_stalls > 0


class TestPredictorProperties:
    """Property: whatever a predictor guesses — well or badly — the
    confirmed shadow converges bit-identical to a pure lockstep run of the
    same input traces.  Predictions may only ever cost replay work."""

    def assert_converges_to_lockstep(self, predictor, seed):
        """Run the speculated session under ``predictor`` and hold it to
        its lockstep twin; returns the speculated session."""
        frames = 180

        def sources(s):
            return [
                PadSource(RandomSource(s, toggle_p=0.10), 0),
                PadSource(RandomSource(s + 1, toggle_p=0.10), 1),
            ]

        speculated = rollback_session(
            "counter",
            sources(seed),
            NetemConfig(delay=0.060, jitter=0.010, loss=0.05),
            frames,
            seed,
        )
        use_predictor(speculated, predictor)
        speculated.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in speculated.vms]
        assert ConsistencyChecker().verify_traces(traces) == frames

        plan = two_player_plan(
            SyncConfig(buf_frame=0),
            machine_factory=lambda: create_game("counter"),
            sources=sources(seed),
            game_id="counter",
            max_frames=frames,
            seed=seed,
        )
        lockstep = build_session(plan, NetemConfig(delay=0.010))
        lockstep.run(horizon=600.0)
        assert (
            speculated.vms[0].runtime.trace.checksums
            == lockstep.vms[0].runtime.trace.checksums
        )
        return speculated

    @pytest.mark.parametrize("predictor", ["naive", "repeat-last", "heuristic"])
    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_any_trace_converges_to_lockstep(self, predictor, seed):
        self.assert_converges_to_lockstep(predictor, seed)

    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_a_predictor_wrong_every_time_still_converges(self, seed):
        """Maximal misprediction: every speculated frame whose remote
        input was guessed is wrong and rolls back, and the confirmed
        timeline is still the lockstep twin's."""
        speculated = self.assert_converges_to_lockstep("always-wrong", seed)
        for vm in speculated.vms:
            stats = vm.engine.consistency.stats
            assert stats.mispredicted_frames == stats.predicted_frames > 0
            assert stats.rollbacks > 0

    def test_heuristic_decays_impulse_but_holds_directions(self):
        predictor = InputPredictor(impulse_hold=2)
        # Site 1 last seen at frame 10 holding RIGHT (bit 3) + button A
        # (bit 4) in player 1's byte.
        bits = (0b0001_1000) << 8
        predictor.observe(1, 10, bits)
        assert predictor.predict(1, 11) == bits  # inside the hold
        assert predictor.predict(1, 12) == bits
        decayed = predictor.predict(1, 13)  # past the hold: A released
        assert decayed == (0b0000_1000) << 8


class TestLagHandOver:
    """A rollback engine may now *accept* a non-zero ``buf_frame`` — the
    adaptive policy hands over sessions mid-lag — draining it to zero
    through the slot mapping instead of raising (the pre-policy behaviour
    was a hard ``ValueError``)."""

    def test_laggy_config_drains_and_stays_consistent(self):
        session = build_rollback_session(
            game_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(21, toggle_p=0.08), 0),
                PadSource(RandomSource(22, toggle_p=0.08), 1),
            ],
            netem=NetemConfig(delay=0.020),
            frames=240,
            seed=21,
            config=SyncConfig(buf_frame=6),
        )
        session.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240
        for vm in session.vms:
            lockstep = vm.runtime.lockstep
            # The lag was zeroed at construction (exactly one resize)...
            assert lockstep.local_lag_frames == 0
            assert lockstep.stats.lag_changes == 1
            # ...and the pre-filled window has fully drained by the end.
            assert lockstep.lag_drain_remaining(vm.runtime.frame) == 0

    def test_drain_preserves_zero_lag_for_fresh_frames(self):
        """After the drain window passes, presses land in their own frame
        again (`local_inputs_dropped` stops growing)."""
        session = build_rollback_session(
            game_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(31, toggle_p=0.08), 0),
                PadSource(RandomSource(32, toggle_p=0.08), 1),
            ],
            netem=NetemConfig(delay=0.020),
            frames=120,
            seed=31,
            config=SyncConfig(buf_frame=4),
        )
        session.run(horizon=600.0)
        for vm in session.vms:
            stats = vm.runtime.lockstep.stats
            # Exactly the pre-buffered window is dropped, nothing more.
            assert stats.local_inputs_dropped == 4
