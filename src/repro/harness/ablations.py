"""Design-choice ablations (§3.2 and §4.2 discussions, quantified).

* **Abl-1, pacing**: §3.2 argues that without Algorithm 4 "the site that
  starts earlier is always penalized ... considerable speed fluctuation".
  We inject start-up skew and compare the earlier site's smoothness with
  master/slave pacing on vs off.
* **Abl-2, transport**: §3.1 argues TCP "is problematic in satisfying the
  real time constraint".  We run the same workload over the UDP scheme and
  the TCP-like baseline under loss.
* **Abl-3, local lag**: §4.2 explains why local lag is fixed at 100 ms.
  We sweep BufFrame and measure the latency tolerated at 60 FPS.
* **Abl-4, send batching**: §4.2 budgets ~10 ms average (20 ms flush) for
  outbound batching.  We sweep the flush interval near the RTT threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional  # noqa: F401 — Optional used below

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.emulator.machine import create_game
from repro.harness.experiment import (
    ExperimentResult,
    collect_metrics,
    run_point,
    run_session_point,
)
from repro.net.netem import NetemConfig


# ----------------------------------------------------------------------
# Abl-1: Algorithm 4 on/off under start-up skew
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PacingAblationRow:
    start_skew: float
    master_slave_pacing: bool
    #: Earlier (master) site smoothness — the victim without Algorithm 4.
    master_mad: float
    slave_mad: float
    synchrony: float
    master_overrun_stalls: float  # mean SyncInput stall at the master


def run_pacing_ablation(
    start_skews: Iterable[float] = (0.0, 0.05, 0.1, 0.2),
    rtt: float = 0.040,
    frames: int = 900,
    seed: int = 7,
) -> List[PacingAblationRow]:
    rows = []
    for skew in start_skews:
        for pacing in (True, False):
            config = SyncConfig(master_slave_pacing=pacing)
            result = _run_skewed(config, rtt, frames, seed, skew)
            rows.append(
                PacingAblationRow(
                    start_skew=skew,
                    master_slave_pacing=pacing,
                    master_mad=result.frame_time_mad[0],
                    slave_mad=result.frame_time_mad[1],
                    synchrony=result.synchrony,
                    master_overrun_stalls=result.stall_mean[0],
                )
            )
    return rows


def _run_skewed(
    config: SyncConfig, rtt: float, frames: int, seed: int, skew: float
) -> ExperimentResult:
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed=seed * 2 + 1), player=0),
            PadSource(RandomSource(seed=seed * 2 + 2), player=1),
        ],
        game_id="counter",
        max_frames=frames,
        seed=seed,
        frame_loop_delays=[0.0, skew],  # the slave begins `skew` late
    )
    return run_session_point(plan, NetemConfig.for_rtt(rtt), rtt)


# ----------------------------------------------------------------------
# Abl-2: UDP + selective repeat vs TCP-like baseline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransportAblationRow:
    transport: str
    loss: float
    frame_time_mean: float
    frame_time_mad: float
    frames_verified: int


def run_transport_ablation(
    losses: Iterable[float] = (0.0, 0.01, 0.02, 0.05),
    rtt: float = 0.040,
    frames: int = 900,
    seed: int = 7,
) -> List[TransportAblationRow]:
    rows = []
    for transport in ("udp", "tcp"):
        for loss in losses:
            result = run_point(
                rtt, frames=frames, seed=seed, loss=loss, transport=transport
            )
            rows.append(
                TransportAblationRow(
                    transport=transport,
                    loss=loss,
                    frame_time_mean=result.frame_time_mean[0],
                    frame_time_mad=result.frame_time_mad[0],
                    frames_verified=result.frames_verified,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Abl-3: local lag (BufFrame) sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LagAblationRow:
    buf_frame: int
    local_lag: float  # the responsiveness cost, seconds
    rtt: float
    frame_time_mean: float
    frame_time_mad: float


def run_lag_ablation(
    buf_frames: Iterable[int] = (0, 2, 4, 6, 9, 12),
    rtt: float = 0.100,
    frames: int = 900,
    seed: int = 7,
) -> List[LagAblationRow]:
    """At a fixed RTT, more local lag buys smoothness (and vice versa)."""
    rows = []
    for buf_frame in buf_frames:
        config = SyncConfig(buf_frame=buf_frame)
        result = run_point(rtt, frames=frames, config=config, seed=seed)
        rows.append(
            LagAblationRow(
                buf_frame=buf_frame,
                local_lag=config.local_lag,
                rtt=rtt,
                frame_time_mean=result.frame_time_mean[0],
                frame_time_mad=result.frame_time_mad[0],
            )
        )
    return rows


# ----------------------------------------------------------------------
# Abl-5: adaptive local lag under a fluctuating network (§4.2's rejected
# alternative, implemented and measured)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveLagRow:
    scenario: str  # "steady" or "fluctuating"
    adaptive: bool
    rtt_low: float
    rtt_high: float
    frame_time_mean: float
    frame_time_mad: float
    mean_lag: float  # seconds of input latency, averaged over frames
    max_lag: float
    lag_changes: int


def _run_adaptive_case(
    adaptive: bool,
    scenario: str,
    rtt_low: float,
    rtt_high: float,
    switch_period: Optional[float],
    frames: int,
    seed: int,
) -> AdaptiveLagRow:
    config = SyncConfig(adaptive_lag=adaptive)
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed * 2 + 1), player=0),
            PadSource(RandomSource(seed * 2 + 2), player=1),
        ],
        game_id="counter",
        max_frames=frames,
        seed=seed,
    )
    start_rtt = rtt_high if switch_period is None else rtt_low
    session = build_session(plan, NetemConfig.for_rtt(start_rtt))
    horizon = frames / config.cfps * 6 + 60

    if switch_period is not None:

        def flip(session=session, high=[True]):
            rtt = rtt_high if high[0] else rtt_low
            session.network.connect("site0", "site1", NetemConfig.for_rtt(rtt))
            high[0] = not high[0]

        switch_at = switch_period
        while switch_at < horizon:
            session.loop.call_at(switch_at, flip)
            switch_at += switch_period

    session.run(horizon=horizon)
    result = collect_metrics(session, rtt_high)
    trace = session.vms[0].runtime.trace
    tpf = config.time_per_frame
    lag_seconds = [lag * tpf for lag in trace.lags]
    return AdaptiveLagRow(
        scenario=scenario,
        adaptive=adaptive,
        rtt_low=rtt_low,
        rtt_high=rtt_high,
        frame_time_mean=result.frame_time_mean[0],
        frame_time_mad=result.frame_time_mad[0],
        mean_lag=sum(lag_seconds) / len(lag_seconds),
        max_lag=max(lag_seconds),
        lag_changes=session.vms[0].runtime.lockstep.stats.lag_changes,
    )


def run_adaptive_lag_ablation(
    rtt_low: float = 0.040,
    rtt_high: float = 0.240,
    switch_period: float = 3.0,
    frames: int = 1200,
    seed: int = 7,
) -> List[AdaptiveLagRow]:
    """Fixed 100 ms lag vs adaptive lag, steady-high and fluctuating RTT.

    The paper keeps lag fixed, arguing adaptation "does not pay off".  The
    measurement shows both sides of that argument: on a *steady* high-RTT
    link adaptation rescues the frame rate (the case the paper concedes is
    already beyond its recommended operating range); under *fluctuating*
    RTT the estimator lags the network, the lag value thrashes, and the
    player gains little — §4.2's conclusion, quantified.
    """
    rows = []
    for scenario, period in (("steady", None), ("fluctuating", switch_period)):
        for adaptive in (False, True):
            rows.append(
                _run_adaptive_case(
                    adaptive, scenario, rtt_low, rtt_high, period, frames, seed
                )
            )
    return rows


# ----------------------------------------------------------------------
# Abl-4: send batching interval sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchingAblationRow:
    send_interval: float
    rtt: float
    frame_time_mean: float
    frame_time_mad: float
    datagrams_sent: int


def run_batching_ablation(
    send_intervals: Iterable[float] = (0.002, 0.005, 0.010, 0.020, 0.040),
    rtt: float = 0.140,
    frames: int = 900,
    seed: int = 7,
) -> List[BatchingAblationRow]:
    """Near the threshold RTT, the flush interval directly eats lag budget.

    Smaller flush intervals push the tolerated RTT up (at the cost of more
    datagrams) — quantifying §4.2's "balance between interactivity and
    utilization of system resources".
    """
    rows = []
    for interval in send_intervals:
        config = SyncConfig(send_interval=interval)
        result = run_point(rtt, frames=frames, config=config, seed=seed)
        rows.append(
            BatchingAblationRow(
                send_interval=interval,
                rtt=rtt,
                frame_time_mean=result.frame_time_mean[0],
                frame_time_mad=result.frame_time_mad[0],
                datagrams_sent=result.transport_stats[0].get("datagrams_sent", 0),
            )
        )
    return rows
