"""Ext-D — timewarp/rollback vs local-lag lockstep (§5's rejected design).

§5 rejects timewarp because "rolling back states of a distributed game
without semantic knowledge can be expensive".  With the Machine contract's
generic savestates we can implement rollback game-transparently and put a
number on "expensive": the replay overhead (extra frame executions per
confirmed frame) and the rollback rate, against the latency it buys back
(zero input lag instead of the paper's 100 ms).
"""

from repro.core.inputs import PadSource, RandomSource
from repro.core.rollback import build_rollback_session
from repro.emulator.machine import create_game
from repro.harness.experiment import run_point
from repro.harness.report import format_table
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig


def run_rollback_point(rtt, frames, toggle_p, seed=7):
    session = build_rollback_session(
        game_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed * 2 + 1, toggle_p=toggle_p), 0),
            PadSource(RandomSource(seed * 2 + 2, toggle_p=toggle_p), 1),
        ],
        netem=NetemConfig.for_rtt(rtt),
        frames=frames,
        seed=seed,
    )
    session.run(horizon=600.0)
    verified = ConsistencyChecker().verify_traces(
        [vm.runtime.trace for vm in session.vms]
    )
    vm = session.vms[0]
    stats = vm.engine.consistency.stats
    return {
        "rtt": rtt,
        "toggle_p": toggle_p,
        "frame_time": mean(vm.runtime.trace.frame_times()),
        "verified": verified,
        "rollback_rate": stats.rollbacks / max(1, stats.confirmed_frames),
        "replay_overhead": stats.replayed_frames / max(1, stats.confirmed_frames),
        "max_depth": stats.max_replay_depth,
    }


def test_rollback_vs_lockstep(benchmark, frames):
    frames = min(frames, 900)
    rtts = [0.040, 0.080, 0.160, 0.240]

    def run_all():
        rollback = [run_rollback_point(rtt, frames, toggle_p=0.08) for rtt in rtts]
        calm = [run_rollback_point(rtt, frames, toggle_p=0.02) for rtt in rtts]
        lockstep = [run_point(rtt, frames=frames) for rtt in rtts]
        return rollback, calm, lockstep

    rollback, calm, lockstep = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for rb, cm, ls in zip(rollback, calm, lockstep):
        rows.append(
            [
                f"{rb['rtt'] * 1000:.0f}",
                f"{ls.frame_time_mean[0] * 1000:.2f}",
                "100",
                f"{rb['frame_time'] * 1000:.2f}",
                "0",
                f"{rb['rollback_rate'] * 100:.0f}%",
                f"{rb['replay_overhead'] * 100:.0f}%",
                rb["max_depth"],
                f"{cm['replay_overhead'] * 100:.0f}%",
            ]
        )
    table = "Ext-D: rollback (zero lag) vs lockstep (100 ms lag)\n" + format_table(
        [
            "RTT(ms)",
            "lockstep ft(ms)",
            "lockstep lag(ms)",
            "rollback ft(ms)",
            "rollback lag(ms)",
            "rollback rate",
            "replay overhead",
            "max depth",
            "overhead (calm pads)",
        ],
        rows,
    )
    print("\n" + table)
    benchmark.extra_info["table"] = table

    # Consistency: the rollback shadow is exactly lockstep.
    assert all(r["verified"] == frames for r in rollback)
    # Rollback holds 60 FPS with zero lag at RTTs where lockstep also does.
    assert rollback[0]["frame_time"] < 1 / 60 * 1.05
    # The paper's cost claim: replay overhead grows with RTT (deeper
    # speculation) and with input activity.
    assert rollback[-1]["replay_overhead"] > rollback[0]["replay_overhead"]
    for rb, cm in zip(rollback, calm):
        assert cm["replay_overhead"] <= rb["replay_overhead"]
    # Depth is bounded by the speculation the RTT forces.
    assert rollback[-1]["max_depth"] >= rollback[0]["max_depth"]
