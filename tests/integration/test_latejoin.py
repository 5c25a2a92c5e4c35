"""Integration: late joiners via savestate transfer (journal extension)."""


from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.engine import SitePeer
from repro.core.multisite import (
    SessionPlan,
    build_session,
    players_and_observers_plan,
    register_late_join,
    site_address,
)
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.net.netem import NetemConfig


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
        snapshot = joiner.runtime.latest_snapshot
        assert snapshot is not None
        # Donor buffered at least its own lag window beyond the snapshot.
        assert any(len(inputs) > 0 for inputs in snapshot.backlog)

    def test_repeated_requests_get_same_snapshot_frame(self):
        session, joiner = build_latejoin_session(
            netem=NetemConfig(delay=0.02, loss=0.3)
        )
        session.run(horizon=300.0)
        cached = session.vms[0].engine.snapshot_cache.get(2)
        assert cached is not None
        assert joiner.engine.joined_at_frame == cached.frame + 1
