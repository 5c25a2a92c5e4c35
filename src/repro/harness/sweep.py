"""Deterministic WAN sweep: adaptive consistency vs pure lockstep.

The acceptance surface of the adaptive-consistency layer
(:mod:`repro.core.policy`): walk seeded two-site sessions across a
0–400 ms RTT axis under each named WAN profile
(:data:`repro.net.netem.WAN_PROFILES`) and show that

* **pure lockstep collapses** past the lag budget — the ``BufFrame``-deep
  pipeline floors the frame time at ``RTT/2 / BufFrame``, so with the
  paper's ``BufFrame = 6`` the mean frame time leaves the 60 FPS slot
  past the ~200 ms knee (loss stalls pull it down toward ~160 ms) and
  grows linearly with RTT from there, while
* **the adaptive policy stays playable** at every point: it rides
  lockstep on the good part of the axis and switches those same sites to
  rollback where lockstep would collapse, keeping the steady-state mean
  frame time within a few percent of the 60 FPS period, and
* **consistency never degrades**: every session's cross-site checksums
  verify for the full horizon, switches included.

Methodology: both arms use the same game image, the same seeded input
traces and the same impaired links.  The first ``warmup_frames`` frames
are excluded from the frame-time statistics — they cover session start
and the pre-switch lockstep stretch (at 400 ms RTT the policy needs a
couple of RTTs of ping samples before speculation kicks in); what the sweep scores is the steady state a
player would live in.  Everything is simulator-driven and seeded, so a
sweep is a deterministic test, not a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.metrics.stats import mean
from repro.net.netem import named_profile

#: The sweep's RTT axis (seconds): 0 to 400 ms in 80 ms steps.
SWEEP_RTTS = [0.0, 0.080, 0.160, 0.240, 0.320, 0.400]

#: RTT beyond which pure lockstep must have left its frame slot.  The
#: local-lag pipeline degrades to ``RTT/2 / BufFrame`` per frame, so the
#: knee sits at ``2 · BufFrame · TimePerFrame`` = 200 ms for the paper's
#: defaults; loss-induced stalls pull it down toward ~160 ms.  The sweep
#: asserts the collapse where it is unambiguous.
LOCKSTEP_COLLAPSE_RTT = 0.300

#: Steady-state budget for the adaptive arm: mean frame time within 10 %
#: of the 60 FPS period.
ADAPTIVE_FRAME_BUDGET = 1.10

#: Lockstep is "collapsed" when its mean frame time exceeds 1.3× the slot
#: (at 300 ms RTT the pipeline floor alone is 150 ms/6 = 25 ms ≈ 1.5×).
LOCKSTEP_COLLAPSE_FACTOR = 1.3


@dataclass
class SweepPoint:
    """One (profile, RTT) measurement: adaptive arm vs lockstep arm."""

    profile: str
    rtt: float
    frames: int
    #: Steady-state mean frame time per arm (seconds, warmup excluded).
    adaptive_frame_mean: float
    lockstep_frame_mean: float
    #: Committed mode switches across the adaptive arm's sites.
    switches: int
    #: Final per-site speculation windows of the adaptive arm (0: lockstep).
    final_windows: List[int]
    #: Cross-site checksum-verified frame counts (must equal ``frames``).
    adaptive_verified: int
    lockstep_verified: int
    #: Sites' predictor hit ratio (adaptive arm; 1.0 when never speculated).
    predict_hit_ratio: float
    problems: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.profile:>12} rtt={self.rtt * 1000:3.0f}ms "
            f"adaptive={self.adaptive_frame_mean * 1000:6.2f}ms "
            f"lockstep={self.lockstep_frame_mean * 1000:7.2f}ms "
            f"switches={self.switches} "
            f"windows={'/'.join(map(str, self.final_windows))} [{status}]"
        )


def _sources(seed: int) -> List[PadSource]:
    return [
        PadSource(RandomSource(seed, toggle_p=0.05), 0),
        PadSource(RandomSource(seed + 1, toggle_p=0.05), 1),
    ]


def _steady_frame_mean(trace, warmup_frames: int) -> float:
    """Mean inter-frame time after the warmup prefix (sim-global clock)."""
    begins = trace.begin_times
    tail = begins[warmup_frames:]
    if len(tail) < 2:
        tail = begins[-2:]
    return mean([b - a for a, b in zip(tail, tail[1:])])


def run_sweep_point(
    profile: str,
    rtt: float,
    frames: int = 360,
    seed: int = 7,
    game: str = "counter",
    warmup_frames: int = 60,
    config: Optional[SyncConfig] = None,
    horizon: float = 600.0,
) -> SweepPoint:
    """Run the adaptive arm and its pure-lockstep twin at one sweep point."""
    from repro.core.policy import build_adaptive_session
    from repro.core.multisite import build_session, two_player_plan
    from repro.emulator.machine import create_game
    from repro.metrics.recorder import ConsistencyChecker

    config = config if config is not None else SyncConfig()
    netem = named_profile(profile, rtt=rtt)

    adaptive = build_adaptive_session(
        lambda: create_game(game),
        _sources(seed),
        netem,
        frames=frames,
        seed=seed,
        config=config,
        game_id=game,
    )
    adaptive.run(horizon=horizon)

    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game(game),
        sources=_sources(seed),
        game_id=game,
        max_frames=frames,
        seed=seed,
    )
    lockstep = build_session(plan, netem)
    lockstep.run(horizon=horizon)

    checker = ConsistencyChecker()
    adaptive_traces = [vm.runtime.trace for vm in adaptive.vms]
    lockstep_traces = [vm.runtime.trace for vm in lockstep.vms]
    adaptive_verified = checker.verify_traces(adaptive_traces)
    lockstep_verified = checker.verify_traces(lockstep_traces)

    point = SweepPoint(
        profile=profile,
        rtt=rtt,
        frames=frames,
        adaptive_frame_mean=_steady_frame_mean(adaptive_traces[0], warmup_frames),
        lockstep_frame_mean=_steady_frame_mean(lockstep_traces[0], warmup_frames),
        switches=sum(
            vm.runtime.events.totals.get("switch_commit", 0) for vm in adaptive.vms
        ),
        final_windows=[vm.engine.consistency.window for vm in adaptive.vms],
        adaptive_verified=adaptive_verified,
        lockstep_verified=lockstep_verified,
        predict_hit_ratio=min(
            vm.engine.consistency.stats.predict_hit_ratio
            for vm in adaptive.vms
        ),
    )
    _evaluate(point, config)
    # The two arms share seeds and (while the lag is untouched) the slot
    # mapping, so the adaptive run must be bit-identical to the
    # never-switched twin — the switch-correctness half of the sweep.
    if (
        not config.adaptive_lag
        and adaptive_traces[0].checksums != lockstep_traces[0].checksums
    ):
        point.problems.append("adaptive checksums diverge from lockstep twin")
    return point


def _evaluate(point: SweepPoint, config: SyncConfig) -> None:
    """The sweep's assertions, recorded as problems on the point."""
    from repro.core.policy import POLICY_ROLLBACK_ABOVE_S

    slot = config.time_per_frame
    if point.adaptive_verified < point.frames:
        point.problems.append(
            f"adaptive arm verified only {point.adaptive_verified}/{point.frames}"
        )
    if point.lockstep_verified < point.frames:
        point.problems.append(
            f"lockstep arm verified only {point.lockstep_verified}/{point.frames}"
        )
    if point.adaptive_frame_mean > slot * ADAPTIVE_FRAME_BUDGET:
        point.problems.append(
            f"adaptive frame time {point.adaptive_frame_mean * 1000:.2f}ms "
            f"exceeds {ADAPTIVE_FRAME_BUDGET:.0%} of the frame slot"
        )
    if point.rtt > POLICY_ROLLBACK_ABOVE_S and point.switches == 0:
        point.problems.append(
            "policy never switched although the RTT demands rollback"
        )
    if (
        point.rtt >= LOCKSTEP_COLLAPSE_RTT
        and point.lockstep_frame_mean < slot * LOCKSTEP_COLLAPSE_FACTOR
    ):
        point.problems.append(
            "expected pure lockstep to collapse at this RTT; sweep premise broken"
        )


def quick_sweep(seed: int = 7) -> List[SweepPoint]:
    """CI smoke: one profile, one good and one collapsed RTT point."""
    return [
        run_sweep_point("wan-120", 0.040, frames=240, seed=seed),
        run_sweep_point("wan-120", 0.300, frames=240, seed=seed),
    ]
