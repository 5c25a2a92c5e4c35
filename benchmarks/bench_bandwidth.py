"""Ext-E — bandwidth accounting.

§4.2 mentions the "balance between interactivity and utilization of system
resources (such as CPU and bandwidths)"; [12] in the related work compares
multiplayer architectures by bandwidth.  This benchmark measures the sync
traffic per site as a function of player count (the mesh broadcast is
O(N) per site) and flush interval (fewer, larger messages amortize
headers), and gates the send path against both the frozen v1 number (the
≥3x reduction the compact codec claimed) and the checked-in baseline (no
silent regression creep).  Sessions run without the time server: its
reports ride outside the sync protocol.
"""

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import SessionPlan, build_session
from repro.emulator.machine import create_game
from repro.harness.report import format_table
from repro.metrics.bench import (
    BANDWIDTH_V1_BPS,
    check_bandwidth,
    measure_bandwidth_profile,
)
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


def test_send_path_regression_gate(benchmark, frames):
    """The compact codec's acceptance bar, re-measured every bench run.

    On the standard lossy two-site profile (the configuration
    ``BANDWIDTH_V1_BPS`` was frozen under) the send path must stay at
    least 3x under the legacy codec and within tolerance of its own
    checked-in baseline.  Byte counts are deterministic in the simulator,
    so this is a hard gate, not a noise-banded one.
    """
    frames = min(frames, 900)
    result = benchmark.pedantic(
        lambda: measure_bandwidth_profile(frames=frames),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["sent_Bps"] = result["sent_Bps"]
    benchmark.extra_info["v1_Bps"] = BANDWIDTH_V1_BPS
    if frames < 600:
        return  # shrunken smoke run: startup transient dominates
    assert result["sent_Bps"] <= BANDWIDTH_V1_BPS / 3, (
        f"send path {result['sent_Bps']:.0f} B/s/site lost the 3x "
        f"reduction over v1's {BANDWIDTH_V1_BPS:.0f}"
    )
    assert check_bandwidth(result["sent_Bps"]) == []
