"""Ext-E — bandwidth accounting.

§4.2 mentions the "balance between interactivity and utilization of system
resources (such as CPU and bandwidths)"; [12] in the related work compares
multiplayer architectures by bandwidth.  This benchmark measures the sync
traffic per site as a function of player count (the mesh broadcast is
O(N) per site) and flush interval (fewer, larger messages amortize
headers).  The send path's exact bytes on the standard lossy profile are
pinned in tier-1 (``tests/integration/test_session_gates.py``).  Sessions
run without the time server: its reports ride outside the sync protocol.
"""

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import SessionPlan, build_session
from repro.emulator.machine import create_game
from repro.harness.report import format_table
from repro.metrics.recorder import ConsistencyChecker
from repro.net.netem import NetemConfig


def measure_bandwidth(num_players, send_interval, frames, seed=7):
    config = SyncConfig(send_interval=send_interval)
    plan = SessionPlan(
        config=config,
        assignment=InputAssignment.standard(num_players),
        machines=[create_game("counter") for __ in range(num_players)],
        sources=[
            PadSource(RandomSource(seed + i), player=i)
            for i in range(num_players)
        ],
        max_frames=frames,
        seed=seed,
    )
    session = build_session(
        plan, NetemConfig.for_rtt(0.040), with_time_server=False
    )
    session.run(horizon=600.0)
    ConsistencyChecker().verify_traces([vm.runtime.trace for vm in session.vms])
    duration = frames / config.cfps
    vm = session.vms[0]
    stats = vm.socket.stats
    return {
        "players": num_players,
        "flush_ms": send_interval * 1000,
        "sent_Bps": stats.bytes_sent / duration,
        "received_Bps": stats.bytes_received / duration,
        "datagrams_per_s": stats.datagrams_sent / duration,
    }


def test_bandwidth_accounting(benchmark, frames):
    frames = min(frames, 900)
    cases = [
        (2, 0.020),
        (3, 0.020),
        (4, 0.020),
        (2, 0.005),
        (2, 0.050),
    ]
    results = benchmark.pedantic(
        lambda: [measure_bandwidth(p, i, frames) for p, i in cases],
        rounds=1,
        iterations=1,
    )
    table = "Ext-E: sync bandwidth per site (RTT 40 ms)\n" + format_table(
        ["players", "flush(ms)", "sent (B/s)", "recv (B/s)", "datagrams/s"],
        [
            [
                r["players"],
                f"{r['flush_ms']:.0f}",
                f"{r['sent_Bps']:.0f}",
                f"{r['received_Bps']:.0f}",
                f"{r['datagrams_per_s']:.1f}",
            ]
            for r in results
        ],
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table

    by_case = {(r["players"], r["flush_ms"]): r for r in results}
    # Mesh broadcast: per-site send bandwidth grows with player count.
    assert by_case[(3, 20)]["sent_Bps"] > by_case[(2, 20)]["sent_Bps"]
    assert by_case[(4, 20)]["sent_Bps"] > by_case[(3, 20)]["sent_Bps"]
    # Faster flushing costs more bytes (headers + retransmission overlap).
    assert by_case[(2, 5)]["sent_Bps"] > by_case[(2, 20)]["sent_Bps"]
    # The paper's observation holds: "the amount of data is not excessive" —
    # a two-player session fits in a few kilobytes per second.
    assert by_case[(2, 20)]["sent_Bps"] < 10_000
