"""Integration: adaptive consistency (mid-session lockstep↔rollback).

Every test here holds the adaptive layer to one standard: a session that
switches modes mid-flight must end *bit-identical* to a twin session that
never switched.  The twin shares the game image, the seeds and the
impaired links; the only difference is that its consistency mode is fixed
for the whole run.
"""

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.messages import MAGIC, decode_all
from repro.core.multisite import build_session, two_player_plan
from repro.core.policy import ConsistencyPolicy, build_adaptive_session
from repro.core.rollback import (
    MODE_LOCKSTEP,
    MODE_ROLLBACK,
    SPECULATION_WINDOW,
    SyncInput,
)
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


def adaptive_run(netem, seed, frames=FRAMES):
    session = build_adaptive_session(
        lambda: create_game("counter"),
        sources(seed),
        netem,
        frames=frames,
        seed=seed,
        game_id="counter",
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
            assert vm.engine.consistency.window == 60
            assert vm.runtime.events.totals.get("switch_commit", 0) >= 1

        twin = lockstep_twin(netem, seed=11)
        assert traces[0].checksums == twin.vms[0].runtime.trace.checksums

    def test_switch_commits_in_the_flush_that_decides_it(self):
        """No peer is asked: each site commits rollback in the very flush
        where its policy first named rollback, and no datagram of the
        session carries a retired SWITCH type (13 or 14)."""
        session = build_adaptive_session(
            lambda: create_game("counter"),
            sources(11),
            named_profile("wan-120", rtt=0.200),
            frames=FRAMES,
            seed=11,
            game_id="counter",
        )
        decided = {vm.runtime.site_no: [] for vm in session.vms}
        committed = {vm.runtime.site_no: [] for vm in session.vms}
        for vm in session.vms:
            part, site = vm.engine.consistency, vm.runtime.site_no

            def propose_spy(now, rtt, peers, window, ask=part.policy.propose, site=site):
                proposed = ask(now, rtt, peers, window)
                if proposed:
                    decided[site].append(now)
                return proposed

            def flush_spy(now, part=part, tick=part.flush_tick, site=site):
                before = part.speculating
                tick(now)
                if part.speculating != before:
                    committed[site].append(now)

            part.policy.propose = propose_spy
            part.flush_tick = flush_spy
        type_ids = set()
        transmit = session.network.transmit

        def transmit_spy(source, destination, payload):
            # Time-server reports are not sync datagrams; decode_all
            # refuses a retired type as an unknown one.
            if payload[:2] == MAGIC:
                type_ids.update(m.TYPE_ID for m in decode_all(payload))
            transmit(source, destination, payload)

        session.network.transmit = transmit_spy
        session.run(horizon=600.0)

        for vm in session.vms:
            site = vm.runtime.site_no
            assert vm.engine.consistency.window == 60
            assert vm.runtime.events.totals["switch_commit"] == 1
            assert committed[site] == decided[site][:1]
        assert type_ids and type_ids.isdisjoint({13, 14})

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
        # Born speculating: each part starts with its window open.
        plan = two_player_plan(
            SyncConfig(),
            machine_factory=lambda: create_game("counter"),
            sources=sources(13),
            game_id="counter",
            max_frames=FRAMES,
            seed=13,
            consistency=[
                SyncInput(
                    create_game("counter"), SPECULATION_WINDOW, ConsistencyPolicy()
                )
                for __ in range(2)
            ],
        )
        adaptive = build_session(plan, netem)
        adaptive.run(horizon=600.0)

        traces = [vm.runtime.trace for vm in adaptive.vms]
        assert ConsistencyChecker().verify_traces(traces) == FRAMES
        for vm in adaptive.vms:
            assert vm.engine.consistency.window == 0
            assert vm.runtime.events.totals.get("switch_commit", 0) >= 1

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
            part = rollback = engine.consistency
            runtime = engine.runtime
            part.policy.propose = (
                lambda now, rtt, peers, window: 0 if now >= 1.5 else None
            )
            flush_tick, try_ready = part.flush_tick, part.try_ready

            def settling():
                return part.speculating and not part.window

            def commit_spy(now):
                window = part.window
                flush_tick(now)
                if part.window != window:
                    mode = MODE_ROLLBACK if part.window else MODE_LOCKSTEP
                    commits.append((mode, runtime.frame, rollback.confirmed_frontier))

            def try_ready_spy(now):
                held = settling()
                merged = try_ready(now)
                if held:
                    checks.append(
                        (runtime.frame, rollback.confirmed_frontier, settling(), merged)
                    )
                return merged

            part.flush_tick = commit_spy
            part.try_ready = try_ready_spy

        parts = [
            SyncInput(create_game("counter"), 60, policy=ConsistencyPolicy())
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
            assert engine.consistency.window == 0

        twin = self.run()
        for engine, fixed in zip(engines, twin):
            assert list(engine.runtime.trace.checksums) == list(
                fixed.runtime.trace.checksums
            )


class TestStableConditionsNeverSwitch:
    def test_good_link_stays_lockstep_forever(self):
        session = build_adaptive_session(
            lambda: create_game("counter"),
            sources(17),
            named_profile("wan-120", rtt=0.060),
            frames=FRAMES,
            seed=17,
            game_id="counter",
        )
        steps = {}
        for vm in session.vms:
            for machine in (vm.engine.spec_machine, vm.runtime.machine):
                steps[id(machine)] = 0

                def counted(word, machine=machine, step=machine.step):
                    steps[id(machine)] += 1
                    step(word)

                machine.step = counted
        session.run(horizon=600.0)
        for vm in session.vms:
            part = vm.engine.consistency
            assert part.window == 0 and not part.speculating
            assert vm.runtime.events.totals.get("switch_commit", 0) == 0
            # The zero window never steps the speculative machine; the
            # confirmed one steps once per frame.
            assert steps[id(vm.engine.spec_machine)] == 0
            assert steps[id(vm.runtime.machine)] == FRAMES

    def test_hysteresis_band_never_flaps(self):
        """At 120 ms RTT — between the two thresholds — a lockstep-born
        session must not oscillate."""
        adaptive = adaptive_run(named_profile("wan-120", rtt=0.120), seed=19)
        for vm in adaptive.vms:
            assert vm.runtime.events.totals.get("switch_commit", 0) == 0


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
