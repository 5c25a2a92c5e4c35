#!/usr/bin/env python
"""Rollback (timewarp) vs the paper's local-lag lockstep, side by side.

§5 of the paper rejects timewarp: "rolling back states of a distributed
game without semantic knowledge can be expensive."  The Machine contract's
savestates make rollback game-transparent, so this repo implements it as
the same consistency part (``repro.core.rollback.SyncInput``) with a
speculation window — and this example shows the trade-off the paper was
weighing, live:

* lockstep (window 0, the default part): inputs take 100 ms to appear,
  but each frame is executed once;
* rollback (window 60, zero lag): inputs appear instantly, but the CPU
  re-executes mispredicted suffixes — watch the replay overhead climb
  with RTT.

    python examples/rollback_vs_lockstep.py
"""

from repro import (
    ConsistencyChecker,
    NetemConfig,
    PadSource,
    RandomSource,
    SyncConfig,
    build_session,
    create_game,
    two_player_plan,
)
from repro.core.rollback import build_rollback_session
from repro.metrics.stats import mean

RTTS_MS = [40, 120, 240]
FRAMES = 600
GAME = "brawler"


def run_lockstep(rtt: float):
    plan = two_player_plan(
        SyncConfig.paper_defaults(),
        machine_factory=lambda: create_game(GAME),
        sources=[
            PadSource(RandomSource(21, toggle_p=0.1), 0),
            PadSource(RandomSource(22, toggle_p=0.1), 1),
        ],
        game_id=GAME,
        max_frames=FRAMES,
    )
    session = build_session(plan, NetemConfig.for_rtt(rtt))
    session.run(horizon=600.0)
    ConsistencyChecker().verify_traces([vm.runtime.trace for vm in session.vms])
    return mean(session.vms[0].runtime.trace.frame_times())


def run_rollback(rtt: float):
    session = build_rollback_session(
        game_factory=lambda: create_game(GAME),
        sources=[
            PadSource(RandomSource(21, toggle_p=0.1), 0),
            PadSource(RandomSource(22, toggle_p=0.1), 1),
        ],
        netem=NetemConfig.for_rtt(rtt),
        frames=FRAMES,
    )
    session.run(horizon=600.0)
    ConsistencyChecker().verify_traces([vm.runtime.trace for vm in session.vms])
    vm = session.vms[0]
    stats = vm.engine.consistency.stats
    return (
        mean(vm.runtime.trace.frame_times()),
        stats.replayed_frames / max(1, stats.confirmed_frames),
        stats.max_replay_depth,
    )


def main() -> None:
    print(f"{GAME!r}, {FRAMES} frames per run\n")
    print(f"{'RTT':>6}  {'lockstep':>22}  {'rollback':>40}")
    print(f"{'':>6}  {'frame time / input lag':>22}  "
          f"{'frame time / input lag / replay overhead':>40}")
    for rtt_ms in RTTS_MS:
        lockstep_ft = run_lockstep(rtt_ms / 1000)
        rollback_ft, overhead, depth = run_rollback(rtt_ms / 1000)
        print(
            f"{rtt_ms:>4}ms  {lockstep_ft * 1000:>9.2f}ms / 100ms  "
            f"{rollback_ft * 1000:>9.2f}ms /   0ms / "
            f"{overhead * 100:>4.0f}% (depth<={depth})"
        )
    print(
        "\nBoth stayed bit-identical across sites at every RTT; rollback"
        "\nbuys 100 ms of responsiveness and pays for it in re-executed"
        "\nframes — the §5 trade-off, measured."
    )


if __name__ == "__main__":
    main()
