#!/usr/bin/env python
"""Journal-version extensions: more than two players, observers, late join.

Builds a four-site session for the co-op shooter:

* sites 0 and 1 — players (each controls one ship),
* site 2 — an observer, present from the start, controlling no input bits,
* site 3 — a *late-joining* observer that appears five seconds in, fetches
  a savestate from site 0, and replays forward in lockstep.

All four replicas must converge frame-for-frame.

    python examples/spectators_and_latejoin.py
"""

from repro import (
    ConsistencyChecker,
    NetemConfig,
    PadSource,
    RandomSource,
    SyncConfig,
    build_session,
    create_game,
    players_and_observers_plan,
)
from repro.core.engine import SitePeer
from repro.core.multisite import register_late_join, site_address
from repro.core.vm import DistributedVM


def main() -> None:
    frames = 900
    config = SyncConfig.paper_defaults()
    plan = players_and_observers_plan(
        config,
        machine_factory=lambda: create_game("shooter"),
        player_sources=[
            PadSource(RandomSource(seed=5, toggle_p=0.2), player=0),
            PadSource(RandomSource(seed=6, toggle_p=0.2), player=1),
        ],
        num_observers=2,  # site 2 joins at start; site 3 joins late
        game_id="shooter",
        max_frames=frames,
        handshake_sites=[0, 1, 2],  # site 3 skips the start handshake
    )
    session = build_session(
        plan, NetemConfig.for_rtt(0.040), excluded_sites=[3]
    )

    # The joiner is the same driver shell and the same engine, built with a
    # donor: it acquires that site's savestate instead of handshaking.
    engine = plan.build_engine(
        3,
        [SitePeer(s, site_address(s)) for s in range(4)],
        donor_site=0,
        time_server_address=session.time_server.address,
    )
    joiner = DistributedVM(session.loop, session.network, engine, start_delay=5.0)
    # Site 0 donates savestates; everyone learns about the joiner on serve.
    register_late_join(session.vms, session.vms[0], joiner_site=3)
    session.vms.append(joiner)

    print("players: sites 0,1 | observer: site 2 | late joiner: site 3 (t=5s)")
    session.run()

    print(f"late joiner entered at frame {joiner.engine.joined_at_frame}")
    traces = [vm.runtime.trace for vm in session.vms]
    verified = ConsistencyChecker().verify_traces(traces)
    print(f"all four replicas identical over {verified} overlapping frames")

    machine = session.vms[0].runtime.machine
    print(f"shared game: score={machine.score} lives={machine.lives}")
    print(machine.render_text())


if __name__ == "__main__":
    main()
