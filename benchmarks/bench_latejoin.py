"""Ext-B — late joiner cost (journal-version extension).

Measures what joining a running session costs: snapshot size on the wire,
time from request to first synchronized frame, and the (absence of) impact
on the running players' pacing.
"""

from repro.core.config import SyncConfig
from repro.core.engine import SitePeer
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import (
    build_session,
    players_and_observers_plan,
    register_late_join,
    site_address,
)
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.harness.report import format_table
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig


def run_latejoin(game, frames, join_time=2.0):
    config = SyncConfig.paper_defaults()
    plan = players_and_observers_plan(
        config,
        machine_factory=lambda: create_game(game),
        player_sources=[
            PadSource(RandomSource(50), player=0),
            PadSource(RandomSource(51), player=1),
        ],
        num_observers=1,
        game_id=game,
        max_frames=frames,
        handshake_sites=[0, 1],
    )
    session = build_session(plan, NetemConfig.for_rtt(0.040), excluded_sites=[2])
    engine = plan.build_engine(
        2,
        [SitePeer(s, site_address(s)) for s in range(3)],
        donor_site=0,
    )
    joiner = DistributedVM(
        session.loop, session.network, engine, start_delay=join_time
    )
    register_late_join(session.vms, session.vms[0], joiner_site=2)
    session.vms.append(joiner)
    session.run(horizon=600.0)

    traces = [vm.runtime.trace for vm in session.vms]
    overlap = ConsistencyChecker().verify_traces(traces)
    # The snapshot the joiner loaded: the one its donor cached for it.
    snapshot = session.vms[0].runtime.recovery.cache[2]
    player_times = session.vms[0].runtime.trace.frame_times()
    return {
        "game": game,
        "snapshot_bytes": len(snapshot.state),
        "wire_bytes": len(snapshot.encode()),
        "joined_at_frame": joiner.engine.joined_at_frame,
        "overlap_verified": overlap,
        "player_frame_time": mean(player_times),
    }


def test_latejoin_cost(benchmark, frames):
    frames = min(frames, 900)
    games = ["counter", "pong-py", "shooter", "pong"]

    results = benchmark.pedantic(
        lambda: [run_latejoin(game, frames) for game in games],
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ["game", "savestate(B)", "on-wire(B)", "joined@frame", "verified", "player ft(ms)"],
        [
            [
                r["game"],
                r["snapshot_bytes"],
                r["wire_bytes"],
                r["joined_at_frame"],
                r["overlap_verified"],
                f"{r['player_frame_time'] * 1000:.2f}",
            ]
            for r in results
        ],
    )
    print("\nExt-B: late-join cost per game\n" + table)
    benchmark.extra_info["table"] = table

    for r in results:
        # The joiner converged with the running session...
        assert r["overlap_verified"] > 0
        # ...and the players never noticed (60 FPS held).
        assert r["player_frame_time"] < 1 / 60 * 1.05
    # The console savestate is the full 64 KiB machine; the pure-Python
    # games are tiny — both must transfer.
    sizes = {r["game"]: r["snapshot_bytes"] for r in results}
    assert sizes["pong"] > 60_000
    assert sizes["counter"] < 100
