"""Integration: late joiners via savestate transfer (journal extension)."""

import zlib

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.engine import SitePeer
from repro.core.messages import StateRequest, StateSnapshot
from repro.core.multisite import (
    SessionPlan,
    build_session,
    players_and_observers_plan,
    register_late_join,
    site_address,
)
from repro.core.rollback import SPECULATION_WINDOW, SyncInput
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.net.netem import NetemConfig
from repro.net.transport import Datagram


def build_latejoin_session(
    game="counter",
    joiner_is_player=False,
    frames=360,
    join_time=2.0,
    netem=None,
):
    config = SyncConfig.paper_defaults()
    netem = netem or NetemConfig.for_rtt(0.040)
    if joiner_is_player:
        total = 3
        assignment = InputAssignment.standard(3)
        sources = [
            PadSource(RandomSource(30), player=0),
            PadSource(RandomSource(31), player=1),
            PadSource(RandomSource(32), player=2),
        ]
        plan = SessionPlan(
            config=config,
            assignment=assignment,
            machines=[create_game(game) for __ in range(total)],
            sources=sources,
            game_id=game,
            max_frames=frames,
            handshake_sites=[0, 1],
        )
    else:
        plan = players_and_observers_plan(
            config,
            machine_factory=lambda: create_game(game),
            player_sources=[
                PadSource(RandomSource(30), player=0),
                PadSource(RandomSource(31), player=1),
            ],
            num_observers=1,
            game_id=game,
            max_frames=frames,
            handshake_sites=[0, 1],
        )
    joiner_site = 2

    session = build_session(plan, netem, excluded_sites=[joiner_site])
    engine = plan.build_engine(
        joiner_site,
        [SitePeer(s, site_address(s)) for s in range(len(plan.assignment))],
        donor_site=0,
        time_server_address=session.time_server.address,
    )
    joiner = DistributedVM(
        session.loop, session.network, engine, start_delay=join_time
    )
    register_late_join(session.vms, session.vms[0], joiner_site=joiner_site)
    session.vms.append(joiner)
    return session, joiner


class TestObserverLateJoin:
    def test_joiner_converges(self):
        session, joiner = build_latejoin_session()
        session.run(horizon=300.0)
        traces = [vm.runtime.trace for vm in session.vms]
        overlap = ConsistencyChecker().verify_traces(traces)
        assert joiner.engine.joined_at_frame is not None
        assert overlap == 360 - joiner.engine.joined_at_frame

    def test_joiner_state_loaded_from_snapshot(self):
        session, joiner = build_latejoin_session(game="shooter")
        session.run(horizon=300.0)
        assert joiner.engine.joined_at_frame > 0
        # The joiner never replayed frames before the snapshot.
        assert joiner.runtime.trace.first_frame == joiner.engine.joined_at_frame

    def test_existing_players_unaffected_before_join(self):
        with_join, __ = build_latejoin_session(join_time=2.0)
        with_join.run(horizon=300.0)
        without_plan = players_and_observers_plan(
            SyncConfig.paper_defaults(),
            machine_factory=lambda: create_game("counter"),
            player_sources=[
                PadSource(RandomSource(30), player=0),
                PadSource(RandomSource(31), player=1),
            ],
            num_observers=1,
            game_id="counter",
            max_frames=360,
            handshake_sites=[0, 1],
        )
        without = build_session(
            without_plan, NetemConfig.for_rtt(0.040), excluded_sites=[2]
        )
        for vm in without.vms:
            vm.runtime.lockstep.mark_absent(2)
        without.run(horizon=300.0)
        assert (
            with_join.vms[0].runtime.trace.checksums
            == without.vms[0].runtime.trace.checksums
        )


class TestPlayerLateJoin:
    def test_player_joiner_converges_and_contributes(self):
        session, joiner = build_latejoin_session(joiner_is_player=True)
        session.run(horizon=300.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) > 0
        gate = joiner.engine.joined_at_frame + SyncConfig.paper_defaults().buf_frame
        host_inputs = session.vms[0].runtime.trace.inputs
        contributed = [
            i for i, word in enumerate(host_inputs) if (word >> 16) & 0xFF
        ]
        assert contributed
        assert min(contributed) >= gate  # never before the admission gate

    def test_joiner_input_bits_empty_before_gate(self):
        session, joiner = build_latejoin_session(joiner_is_player=True)
        session.run(horizon=300.0)
        gate = joiner.engine.joined_at_frame + SyncConfig.paper_defaults().buf_frame
        for trace in (vm.runtime.trace for vm in session.vms):
            for index in range(min(gate - trace.first_frame, trace.frames)):
                if index < 0:
                    continue
                assert (trace.inputs[index] >> 16) & 0xFF == 0


class TestStateTransferIsLockstepOnly:
    """Three zero-lag counter sites, site 2 joining from donor 0 at 2 s.
    With lockstep parts the join completes.  With speculating parts it
    never ends: the donor labels its snapshot with its speculative frame
    while serving the shadow's older state, and the joiner's confirmation
    frontier stays where it was, so it sits unblocked but idle and its
    peers end ``peer-lost``.  That composition is refused by name."""

    def build(self, parts):
        plan = SessionPlan(
            config=SyncConfig(buf_frame=0),
            assignment=InputAssignment.standard(3),
            machines=[create_game("counter") for __ in range(3)],
            sources=[PadSource(RandomSource(30 + s), player=s) for s in range(3)],
            game_id="counter",
            max_frames=360,
            handshake_sites=[0, 1],
            consistency=parts,
        )
        session = build_session(plan, NetemConfig(delay=0.06), excluded_sites=[2])
        return plan, session

    def joiner(self, plan, session):
        engine = plan.build_engine(
            2,
            [SitePeer(s, site_address(s)) for s in range(3)],
            donor_site=0,
            time_server_address=session.time_server.address,
        )
        return DistributedVM(session.loop, session.network, engine, start_delay=2.0)

    def test_the_join_completes_with_lockstep_parts(self):
        plan, session = self.build([SyncInput() for __ in range(3)])
        joiner = self.joiner(plan, session)
        register_late_join(session.vms, session.vms[0], joiner_site=2)
        session.vms.append(joiner)
        session.run(horizon=60.0)
        assert [vm.engine.termination for vm in session.vms] == ["completed"] * 3
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) > 0

    def test_a_speculating_joiner_is_refused(self):
        plan, session = self.build(
            [SyncInput(create_game("counter"), SPECULATION_WINDOW) for __ in range(3)]
        )
        with pytest.raises(ValueError, match="lockstep-only"):
            self.joiner(plan, session)

    def test_a_speculating_donor_is_refused(self):
        speculating = [
            SyncInput(create_game("counter"), SPECULATION_WINDOW) for __ in range(2)
        ]
        plan, session = self.build(speculating + [SyncInput()])
        self.joiner(plan, session)
        with pytest.raises(ValueError, match="lockstep-only"):
            register_late_join(session.vms, session.vms[0], joiner_site=2)


class TestLateJoinRobustness:
    def test_join_under_loss(self):
        session, joiner = build_latejoin_session(
            netem=NetemConfig(delay=0.02, loss=0.1)
        )
        session.run(horizon=300.0)
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) > 0

    def test_snapshot_backlog_carried(self):
        session, joiner = build_latejoin_session()
        session.run(horizon=300.0)
        # The snapshot the joiner loaded is the one its donor cached for it.
        snapshot = session.vms[0].runtime.recovery.cache.get(2)
        assert snapshot is not None
        assert joiner.engine.joined_at_frame == snapshot.frame + 1
        # Donor buffered at least its own lag window beyond the snapshot.
        assert any(len(inputs) > 0 for inputs in snapshot.backlog)

    def test_repeated_requests_get_same_snapshot_frame(self):
        session, joiner = build_latejoin_session(
            netem=NetemConfig(delay=0.02, loss=0.3)
        )
        session.run(horizon=300.0)
        cached = session.vms[0].runtime.recovery.cache.get(2)
        assert cached is not None
        assert joiner.engine.joined_at_frame == cached.frame + 1


def run_with_forgery(session, vm, message, at, kind):
    """Run ``session``, delivering ``message`` to ``vm``'s socket at ``at``
    from nowhere; returns ``vm``'s ``kind`` records from just after it
    (the bounded ring has rotated them out by the end)."""
    datagram = Datagram(message.encode(), "forger", at)
    session.loop.call_at(at, lambda: vm.socket.deliver(datagram))
    for site in session.vms:
        site.start()
    session.loop.run(until=at + 0.1)
    records = [r for r in vm.runtime.events if r.kind == kind]
    session.loop.run(until=300.0)
    return records


def assert_converged(session):
    for vm in session.vms:
        assert vm.engine.termination == "completed"
    traces = [vm.runtime.trace for vm in session.vms]
    assert ConsistencyChecker().verify_traces(traces) > 0


@pytest.fixture(scope="module")
def clean_join_frame():
    session, joiner = build_latejoin_session(join_time=4.0)
    session.run(horizon=300.0)
    return joiner.engine.joined_at_frame


class TestForgedTransfers:
    """Recovery validates what it serves and what it loads: a forged
    STATE_REQUEST is never served and a foreign STATE_SNAPSHOT never
    loaded, so neither can crash a site or move the real join."""

    @pytest.mark.parametrize(
        "request_",
        [
            StateRequest(sender_site=99, session_id=1),
            StateRequest(sender_site=1, session_id=1),
            StateRequest(sender_site=2, session_id=7),
        ],
        ids=["unknown-site", "present-player", "other-session"],
    )
    def test_forged_state_request_is_not_served(self, request_, clean_join_frame):
        session, joiner = build_latejoin_session(join_time=4.0)
        donor = session.vms[0]
        rejects = run_with_forgery(
            session, donor, request_, 1.0, "state_request_reject"
        )
        assert_converged(session)
        assert joiner.engine.joined_at_frame == clean_join_frame
        assert list(donor.runtime.recovery.cache) == [2]
        assert [r.detail["peer"] for r in rejects] == [request_.sender_site]

    @pytest.mark.parametrize(
        "snapshot",
        [
            # CRC-less, from another session: once crashed the joiner
            # loading a 16-byte image into a 12-byte counter.
            StateSnapshot(0, 99, frame=500, state=bytes(16)),
            # Right-sized and CRC-protected, but from a site that is not
            # the donor: loading it would be silent split-brain.
            StateSnapshot(1, 1, frame=500, state=bytes(12), state_crc=zlib.crc32(bytes(12))),
        ],
        ids=["other-session", "not-the-donor"],
    )
    def test_foreign_snapshot_is_not_loaded(self, snapshot, clean_join_frame):
        session, joiner = build_latejoin_session(join_time=4.0)
        rejects = run_with_forgery(
            session, joiner, snapshot, 4.001, "snapshot_reject"
        )
        assert_converged(session)
        assert joiner.engine.joined_at_frame == clean_join_frame
        assert [r.detail["peer"] for r in rejects] == [snapshot.sender_site]
