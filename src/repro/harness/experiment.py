"""Run one session under one network condition; extract the paper's metrics.

Methodology, mirrored from §4:

* two sites, the same game image, scripted pseudo-random pad input,
* a Netem-style link between them carrying ``RTT/2`` each way,
* a time server on sub-millisecond links; each site reports every
  frame-begin to it, and all timing metrics are computed from the server's
  arrival records (so site clocks need not be aligned — in the simulator
  they are anyway, but the methodology is reproduced faithfully),
* one experiment records ``frames`` frames (the paper: 3600), then we
  compute per-site average frame time, its mean absolute deviation
  (Figure 1), and the absolute average of the per-frame cross-site time
  difference (Figure 2).

Every experiment also verifies logical consistency: per-frame machine
checksums must match across sites, or the run fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import Session, SessionPlan, build_session, two_player_plan
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import absolute_average, mean, mean_abs_deviation
from repro.net.netem import NetemConfig

#: The paper's RTT sweep: 10 ms steps to 200 ms, then 50 ms steps to 400 ms.
PAPER_RTT_SWEEP = [r / 1000.0 for r in list(range(0, 201, 10)) + [250, 300, 350, 400]]

#: Nine points of it, the default sweep: the plateau, the shoulder, the cliff.
REDUCED_RTT_SWEEP = [0.0, 0.040, 0.080, 0.100, 0.120, 0.140, 0.160, 0.200, 0.300]

#: The paper records 3600 frames per experiment.
PAPER_FRAMES = 3600

#: The paper's gaming PCs run Windows XP SP2, whose timer/sleep granularity
#: is ~10 ms.  This drives Figure 1's non-zero sub-threshold deviation and
#: part of §4.2's budget; model it by default, pass 0 for an ideal OS.
PAPER_TIMER_GRANULARITY = 0.010


@dataclass
class ExperimentResult:
    """Metrics of one experiment (one network condition)."""

    rtt: float
    frames: int
    #: Figure 1, per site: average frame time (seconds).
    frame_time_mean: Dict[int, float]
    #: Figure 1, per site: mean absolute deviation of frame time (seconds).
    frame_time_mad: Dict[int, float]
    #: Figure 2: absolute average of per-frame cross-site differences.
    synchrony: float
    #: Achieved frames per second, per site.
    fps: Dict[int, float]
    #: Frames whose checksums were cross-verified equal.
    frames_verified: int
    #: Mean seconds spent blocked in SyncInput, per site.
    stall_mean: Dict[int, float]
    #: Lockstep counters, per site.
    lockstep_stats: Dict[int, dict] = field(default_factory=dict)
    #: Transport counters, per site.
    transport_stats: Dict[int, dict] = field(default_factory=dict)

    def describe(self) -> str:
        s0 = self.frame_time_mean.get(0, float("nan"))
        mad0 = self.frame_time_mad.get(0, float("nan"))
        return (
            f"RTT={self.rtt * 1000:5.0f}ms frame_time={s0 * 1000:6.2f}ms "
            f"mad={mad0 * 1000:5.2f}ms sync={self.synchrony * 1000:6.2f}ms "
            f"fps={self.fps.get(0, 0):5.1f}"
        )


def horizon_for(config: SyncConfig, netem: NetemConfig, frames: int) -> float:
    """A safe simulated-time budget for one experiment.

    Past the latency threshold the steady-state frame time approaches
    ``(one_way + overheads) / buf_frame`` (the lag window amortizes the
    delay over BufFrame frames), so budget generously above that.
    """
    overhead = 0.040 + netem.jitter
    stretched = (netem.delay + overhead) / max(1, config.buf_frame)
    per_frame = max(config.time_per_frame, stretched) + 0.002
    # Loss causes retransmission stalls of up to a flush interval each.
    loss_penalty = 1.0 / (1.0 - min(netem.loss, 0.9))
    return frames * per_frame * 2.0 * loss_penalty + 30.0


def run_session_point(
    plan: SessionPlan,
    netem: NetemConfig,
    rtt: float,
    transport: str = "udp",
    horizon: Optional[float] = None,
) -> ExperimentResult:
    """Run an already-planned session and collect the standard metrics."""
    session = build_session(plan, netem, transport=transport)
    if horizon is None:
        horizon = horizon_for(plan.config, netem, plan.max_frames)
    session.run(horizon=horizon)
    return collect_metrics(session, rtt)


def collect_metrics(session: Session, rtt: float) -> ExperimentResult:
    """Extract Figure-1/Figure-2 metrics plus counters from a finished run."""
    traces = [vm.runtime.trace for vm in session.vms]
    frames_verified = ConsistencyChecker().verify_traces(traces)

    frame_time_mean: Dict[int, float] = {}
    frame_time_mad: Dict[int, float] = {}
    fps: Dict[int, float] = {}
    stall_mean: Dict[int, float] = {}
    lockstep_stats: Dict[int, dict] = {}
    transport_stats: Dict[int, dict] = {}

    server = session.time_server
    for vm in session.vms:
        site = vm.runtime.site_no
        if server is not None and server.frames_recorded(site) >= 2:
            series = server.frame_time_series(site)
        else:
            series = vm.runtime.trace.frame_times()
        frame_time_mean[site] = mean(series)
        frame_time_mad[site] = mean_abs_deviation(series)
        fps[site] = 1.0 / frame_time_mean[site]
        stall_mean[site] = mean(vm.runtime.trace.sync_stall)
        lockstep_stats[site] = vm.runtime.lockstep.stats.as_dict()
        transport_stats[site] = vm.socket.stats.as_dict()

    if server is not None and len(session.vms) >= 2:
        sites = sorted(vm.runtime.site_no for vm in session.vms)[:2]
        differences = server.synchrony_series(sites[0], sites[1])
    else:
        differences = _trace_synchrony(session)
    synchrony = absolute_average(differences) if differences else 0.0

    frames = min(t.frames for t in traces) if traces else 0
    return ExperimentResult(
        rtt=rtt,
        frames=frames,
        frame_time_mean=frame_time_mean,
        frame_time_mad=frame_time_mad,
        synchrony=synchrony,
        fps=fps,
        frames_verified=frames_verified,
        stall_mean=stall_mean,
        lockstep_stats=lockstep_stats,
        transport_stats=transport_stats,
    )


def _trace_synchrony(session: Session) -> List[float]:
    """Fallback synchrony from local traces (valid: sim time is global)."""
    if len(session.vms) < 2:
        return []
    a = session.vms[0].runtime.trace.begin_times
    b = session.vms[1].runtime.trace.begin_times
    count = min(len(a), len(b))
    return [a[i] - b[i] for i in range(count)]


def run_point(
    rtt: float,
    frames: int = PAPER_FRAMES,
    config: Optional[SyncConfig] = None,
    game: str = "counter",
    seed: int = 7,
    start_skew: float = 0.0,
    frame_compute_time: float = 0.002,
    loss: float = 0.0,
    jitter: float = 0.0,
    transport: str = "udp",
    timer_granularity: float = PAPER_TIMER_GRANULARITY,
) -> ExperimentResult:
    """The paper's standard two-site experiment at one RTT value.

    ``timer_granularity`` defaults to the Windows XP ~10 ms sleep
    granularity of the paper's testbed; pass 0 for an ideal-OS run.
    """
    config = config if config is not None else SyncConfig.paper_defaults()
    netem = NetemConfig(delay=rtt / 2.0, jitter=jitter, loss=loss)
    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game(game),
        sources=[
            PadSource(RandomSource(seed=seed * 2 + 1), player=0),
            PadSource(RandomSource(seed=seed * 2 + 2), player=1),
        ],
        game_id=game,
        max_frames=frames,
        frame_compute_time=frame_compute_time,
        seed=seed,
        start_delays=[0.0, start_skew] if start_skew else None,
        timer_granularity=timer_granularity,
    )
    return run_session_point(plan, netem, rtt, transport=transport)
