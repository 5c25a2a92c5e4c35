"""Integration: adaptive consistency (mid-session lockstep↔rollback).

Every test here holds the adaptive layer to one standard: a session that
switches modes mid-flight must end *bit-identical* to a twin session that
never switched.  The twin shares the game image, the seeds and the
impaired links; the only difference is that its consistency mode is fixed
for the whole run.
"""

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.messages import MODE_LOCKSTEP, MODE_ROLLBACK
from repro.core.multisite import build_session, two_player_plan
from repro.core.policy import Adaptive, build_adaptive_session
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.net.netem import named_profile

from tests.unit.test_engine import EngineMesh, build_engines

FRAMES = 300


def sources(seed):
    return [PadSource(RandomSource(seed + s), s) for s in (0, 1)]


def lockstep_twin(netem, seed, frames=FRAMES, config=None):
    """A plain fixed-mode lockstep session over the same links/inputs."""
    plan = two_player_plan(
        config if config is not None else SyncConfig(),
        machine_factory=lambda: create_game("counter"),
        sources=sources(seed),
        game_id="counter",
        max_frames=frames,
        seed=seed,
    )
    session = build_session(plan, netem)
    session.run(horizon=600.0)
    return session


def adaptive_run(netem, seed, frames=FRAMES, **kwargs):
    session = build_adaptive_session(
        lambda: create_game("counter"),
        sources(seed),
        netem,
        frames=frames,
        seed=seed,
        game_id="counter",
        **kwargs,
    )
    session.run(horizon=600.0)
    return session


class TestSwitchToRollback:
    """A degraded WAN (200 ms RTT, above the 140 ms threshold) drives the
    policy from its lockstep start into rollback mid-session."""

    def test_switch_commits_and_matches_never_switched_twin(self):
        netem = named_profile("wan-120", rtt=0.200)
        adaptive = adaptive_run(netem, seed=11)

        traces = [vm.runtime.trace for vm in adaptive.vms]
        assert ConsistencyChecker().verify_traces(traces) == FRAMES
        for vm in adaptive.vms:
            assert vm.engine.consistency.mode_name == "rollback"
            assert vm.engine.consistency.policy_switch_count >= 1

        twin = lockstep_twin(netem, seed=11)
        assert traces[0].checksums == twin.vms[0].runtime.trace.checksums

    def test_switch_rides_acked_handshake(self):
        """Both sites keep the propose→commit pair in their switch log,
        nothing aborts, and the commit happens at a frame boundary after
        the proposal — never before the acks could have arrived."""
        adaptive = adaptive_run(named_profile("wan-120", rtt=0.200), seed=11)
        for vm in adaptive.vms:
            log = vm.engine.consistency.switch_log
            assert [entry[0] for entry in log] == ["propose", "commit"]
            (_, proposed_at, _, _, _), (_, committed_at, _, _, _) = log
            # One measured round trip must separate the two (the nominal
            # 200 ms is the link's mean; its sampled minimum is lower).
            assert committed_at - proposed_at >= vm.runtime.rtt.min_rtt

    def test_policy_switch_metric_exported(self):
        adaptive = adaptive_run(named_profile("wan-120", rtt=0.200), seed=11)
        for vm in adaptive.vms:
            snapshot = vm.runtime.metrics.snapshot(vm.runtime)
            assert snapshot["counters"]["policy_switches"] >= 1
            assert 0.0 <= snapshot["gauges"]["predict_hit_ratio"] <= 1.0
            assert snapshot["gauges"]["local_lag_frames"] == 6


class TestSwitchToLockstep:
    """The reverse direction: a rollback-born session over a healthy LAN
    (40 ms RTT, below the 100 ms threshold) settles back into lockstep."""

    def test_settles_and_matches_rollback_twin_outcome(self):
        netem = named_profile("wan-120", rtt=0.040)
        adaptive = adaptive_run(netem, seed=13, initial_mode=MODE_ROLLBACK)

        traces = [vm.runtime.trace for vm in adaptive.vms]
        assert ConsistencyChecker().verify_traces(traces) == FRAMES
        for vm in adaptive.vms:
            assert vm.engine.consistency.mode_name == "lockstep"
            assert vm.engine.consistency.policy_switch_count >= 1

        # The input word sequence is lag-invariantly defined by the seeds,
        # so even across the rollback→lockstep settle the run must equal
        # the fixed-lockstep twin bit for bit.
        twin = lockstep_twin(netem, seed=13)
        assert traces[0].checksums == twin.vms[0].runtime.trace.checksums


class TestSettleWithSpeculationInFlight:
    """Leaving rollback while speculated frames are still unconfirmed:
    the gate holds until the confirmed frontier reaches the last executed
    frame, then flips to lockstep.  Engine level, over a 150 ms one-way
    link, with the policy told to want lockstep from t = 1.5 s."""

    FRAMES = 240
    LATENCY = 0.15

    def run(self, parts=None, instrument=None):
        config = SyncConfig(slice_delay=0.0)
        engines = build_engines(
            frames=self.FRAMES, configs=[config, config], parts=parts
        )
        if instrument is not None:
            for engine in engines:
                instrument(engine)
        mesh = EngineMesh(engines, latency=self.LATENCY)
        mesh.start()
        mesh.run(horizon=60.0)
        return engines

    def test_gate_holds_until_speculation_drains(self):
        commits, checks = [], []

        def instrument(engine):
            part = engine.consistency
            rollback, runtime = part.rollback, engine.runtime
            part.policy.desired_mode = (
                lambda now, rtt, peers, mode: MODE_LOCKSTEP if now >= 1.5 else None
            )
            commit_switch, try_ready = part._commit_switch, part.try_ready

            def commit_spy(mode, now):
                commits.append((mode, runtime.frame, rollback.confirmed_frontier))
                commit_switch(mode, now)

            def try_ready_spy(now):
                settling = part._settling
                merged = try_ready(now)
                if settling:
                    checks.append(
                        (runtime.frame, rollback.confirmed_frontier, part._settling, merged)
                    )
                return merged

            part._commit_switch = commit_spy
            part.try_ready = try_ready_spy

        parts = [
            Adaptive(create_game("counter"), initial_mode=MODE_ROLLBACK)
            for __ in range(2)
        ]
        engines = self.run(parts, instrument)

        assert [mode for mode, __, __ in commits] == [MODE_LOCKSTEP] * 2
        for __, frame, frontier in commits:
            assert frame - 1 - frontier >= 2  # speculation in flight
        held = [check for check in checks if check[2]]
        assert held, "the settle wait never held the gate"
        for frame, frontier, settling, merged in checks:
            if settling:
                assert merged is None and frontier < frame - 1
            else:
                assert frontier == frame - 1
        for engine in engines:
            assert engine.termination == "completed"
            assert engine.consistency.mode_name == "lockstep"

        twin = self.run()
        for engine, fixed in zip(engines, twin):
            assert list(engine.runtime.trace.checksums) == list(
                fixed.runtime.trace.checksums
            )


class TestStableConditionsNeverSwitch:
    def test_good_link_stays_lockstep_forever(self):
        adaptive = adaptive_run(named_profile("wan-120", rtt=0.060), seed=17)
        for vm in adaptive.vms:
            assert vm.engine.consistency.mode_name == "lockstep"
            assert vm.engine.consistency.policy_switch_count == 0

    def test_hysteresis_band_never_flaps(self):
        """At 120 ms RTT — between the two thresholds — a lockstep-born
        session must not oscillate."""
        adaptive = adaptive_run(named_profile("wan-120", rtt=0.120), seed=19)
        for vm in adaptive.vms:
            assert vm.engine.consistency.policy_switch_count == 0


class TestSweepHarness:
    """The `repro sweep` surface itself (quick points only; the full grid
    runs from the CLI / bench)."""

    def test_quick_sweep_passes(self):
        from repro.harness.sweep import quick_sweep

        points = quick_sweep(seed=7)
        for point in points:
            assert point.passed, point.problems

    def test_collapsed_point_shows_the_contrast(self):
        from repro.harness.sweep import run_sweep_point

        point = run_sweep_point("wan-120", 0.300, frames=240, seed=7)
        assert point.passed, point.problems
        # Pure lockstep has left the 60 FPS slot (the pipeline floor at
        # 300 ms RTT is 150 ms/6 = 25 ms ≈ 1.5× the slot); adaptive has not.
        assert point.lockstep_frame_mean > point.adaptive_frame_mean * 1.3
        assert point.switches >= 1

    def test_sweep_is_deterministic(self):
        from repro.harness.sweep import run_sweep_point

        a = run_sweep_point("loss-burst", 0.200, frames=180, seed=23)
        b = run_sweep_point("loss-burst", 0.200, frames=180, seed=23)
        assert a.passed and b.passed
        assert a.adaptive_frame_mean == b.adaptive_frame_mean
        assert a.lockstep_frame_mean == b.lockstep_frame_mean
        assert a.switches == b.switches
