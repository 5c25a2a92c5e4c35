"""Integration: behaviour under packet loss, outages and divergence faults."""

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.messages import Sync
from repro.core.multisite import (
    SessionPlan,
    build_session,
    site_address,
    two_player_plan,
)
from repro.core.inputs import InputAssignment
from repro.emulator.games.counter import NondeterministicMachine
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker, ConsistencyError
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig
from repro.net.transport import Datagram
from tests.wire import sync_of


def run_two(netem, frames=240, seed=5, config=None, machines=None):
    if machines is None:
        plan = two_player_plan(
            config or SyncConfig.paper_defaults(),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(seed), player=0),
                PadSource(RandomSource(seed + 1), player=1),
            ],
            max_frames=frames,
            seed=seed,
        )
    else:
        plan = SessionPlan(
            config=config or SyncConfig.paper_defaults(),
            assignment=InputAssignment.standard(2),
            machines=machines,
            sources=[
                PadSource(RandomSource(seed), player=0),
                PadSource(RandomSource(seed + 1), player=1),
            ],
            max_frames=frames,
            seed=seed,
        )
    session = build_session(plan, netem)
    session.run(horizon=900.0)
    return session


class TestPacketLoss:
    @pytest.mark.parametrize("loss", [0.05, 0.15, 0.30])
    def test_convergence_under_loss(self, loss):
        session = run_two(NetemConfig(delay=0.02, loss=loss))
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240

    def test_loss_triggers_retransmission(self):
        session = run_two(NetemConfig(delay=0.02, loss=0.2))
        stats = session.vms[0].runtime.lockstep.stats
        assert stats.inputs_retransmitted > 0

    def test_heavy_loss_degrades_but_survives(self):
        clean = run_two(NetemConfig(delay=0.02))
        lossy = run_two(NetemConfig(delay=0.02, loss=0.5))
        traces = [vm.runtime.trace for vm in lossy.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240
        assert mean(
            lossy.vms[0].runtime.trace.frame_times()
        ) >= mean(clean.vms[0].runtime.trace.frame_times())


class TestOutage:
    def test_temporary_outage_freezes_then_recovers(self):
        """§3.1: 'the local site will be stuck in the loop freezing the game
        until it is recovered.'"""
        plan = two_player_plan(
            SyncConfig.paper_defaults(),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(5), player=0),
                PadSource(RandomSource(6), player=1),
            ],
            max_frames=360,
            seed=5,
        )
        netem = NetemConfig.for_rtt(0.020)
        session = build_session(plan, netem)
        blackout = NetemConfig(delay=0.01, loss=1.0)
        # Kill the link from t=2s to t=3s.
        session.loop.call_at(
            2.0, lambda: session.network.connect("site0", "site1", blackout)
        )
        session.loop.call_at(
            3.0, lambda: session.network.connect("site0", "site1", netem)
        )
        session.run(horizon=600.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 360
        # Some frame must have stalled for a large fraction of the outage.
        max_frame_time = max(session.vms[0].runtime.trace.frame_times())
        assert max_frame_time > 0.5

    def test_game_state_unaffected_by_outage(self):
        """The frozen game resumes exactly; no inputs are skipped."""
        plan_checksums = None
        for inject_outage in (False, True):
            plan = two_player_plan(
                SyncConfig.paper_defaults(),
                machine_factory=lambda: create_game("counter"),
                sources=[
                    PadSource(RandomSource(5), player=0),
                    PadSource(RandomSource(6), player=1),
                ],
                max_frames=240,
                seed=5,
            )
            netem = NetemConfig.for_rtt(0.020)
            session = build_session(plan, netem)
            if inject_outage:
                blackout = NetemConfig(delay=0.01, loss=1.0)
                session.loop.call_at(
                    1.0,
                    lambda: session.network.connect("site0", "site1", blackout),
                )
                session.loop.call_at(
                    1.6,
                    lambda: session.network.connect("site0", "site1", netem),
                )
            session.run(horizon=600.0)
            checksums = session.vms[0].runtime.trace.checksums
            if plan_checksums is None:
                plan_checksums = checksums
            else:
                assert checksums == plan_checksums


class TestDivergenceDetection:
    def test_nondeterministic_game_caught(self):
        """§5's warning: a non-deterministic VM breaks the whole scheme —
        and our checker must catch it, not mask it."""
        session = run_two(
            NetemConfig.for_rtt(0.020),
            frames=120,
            machines=[NondeterministicMachine(), NondeterministicMachine()],
        )
        traces = [vm.runtime.trace for vm in session.vms]
        with pytest.raises(ConsistencyError):
            ConsistencyChecker().verify_traces(traces)


def forged_ack(lockstep):
    """An ack 5,000 frames past anything site 0 has sent."""
    return [Sync(1, lockstep.session_id, lockstep.last_rcv_frame[0] + 5000,
                 lockstep.last_rcv_frame[1] + 1)]


def forged_conflict(lockstep):
    """Site 1's last held frame again, with one of its bits flipped."""
    frame = lockstep.last_rcv_frame[1]
    mask = lockstep.assignment.mask(1)
    flipped = lockstep.ibuf.get(frame, 1) ^ (mask & -mask)
    return [sync_of(1, lockstep.session_id, lockstep.last_ack_frame[1], frame, [flipped], mask)]


def forged_flood(lockstep):
    """Five 7.5 KB windows of 60,000 cells each, past site 1's frontier."""
    start = lockstep.last_rcv_frame[1] + 2
    return [
        sync_of(1, lockstep.session_id, lockstep.last_ack_frame[1],
                start + 60_000 * n, [0x100] * 60_000, lockstep.assignment.mask(1))
        for n in range(5)
    ]


class TestForgedSyncs:
    """A SYNC no correct peer sends, arriving from site 1's address at
    t = 3 s, is refused without harm: the session completes on both
    sites with equal checksums."""

    @pytest.mark.parametrize(
        "forge, decode_errors",
        [(forged_ack, 1), (forged_conflict, 1), (forged_flood, 0)],
        ids=["ack-past-our-inputs", "conflicting-cell", "window-flood"],
    )
    def test_forged_sync_is_harmless(self, forge, decode_errors):
        plan = two_player_plan(
            SyncConfig.paper_defaults(),
            machine_factory=lambda: create_game("counter"),
            sources=[
                PadSource(RandomSource(7), player=0),
                PadSource(RandomSource(8), player=1),
            ],
            max_frames=600,
            seed=7,
        )
        session = build_session(plan, NetemConfig.for_rtt(0.040))
        site0 = session.vms[0]
        lockstep = site0.runtime.lockstep
        slots = []

        def deliver():
            slots.append(len(lockstep.ibuf))
            for message in forge(lockstep):
                site0.socket.deliver(Datagram(message.encode(), site_address(1), 3.0))
            slots.append(len(lockstep.ibuf))

        session.loop.call_at(3.0, deliver)
        session.run(horizon=300.0)
        assert [vm.engine.termination for vm in session.vms] == ["completed"] * 2
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 600
        assert slots[1] - slots[0] <= 120
        assert site0.engine.snapshot()["counters"]["net_decode_errors"] == decode_errors

