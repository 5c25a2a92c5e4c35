"""Journal-version extensions and §5's rejected design, measured.

* **Ext-A, session size**: lockstep waits on the slowest player, so frame
  times barely move with player count on a uniform mesh, and observers
  are free.
* **Ext-B, late join**: what joining a running session costs — snapshot
  size on the wire, the frame it joins at, and the players' pacing.
* **Ext-D, rollback**: §5 rejects timewarp as "expensive"; the Machine
  contract's savestates make it game-transparent, so we put a number on
  the expense (replay work per confirmed frame) against the latency it
  buys back (zero input lag instead of 100 ms).
* **Ext-E, bandwidth**: sync traffic per site against player count (the
  mesh broadcast is O(N) per site) and flush interval.  Sessions run
  without the time server: its reports ride outside the sync protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.core.config import SyncConfig
from repro.core.engine import SitePeer
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import (
    SessionPlan,
    build_session,
    players_and_observers_plan,
    register_late_join,
    site_address,
)
from repro.core.rollback import build_rollback_session
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.harness.experiment import collect_metrics, run_point
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.netem import NetemConfig


def _verified(session) -> int:
    """Frames whose checksums agree across every site; raises on a mismatch."""
    return ConsistencyChecker().verify_traces([vm.runtime.trace for vm in session.vms])


# ----------------------------------------------------------------------
# Ext-A: N players and observers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultisiteRow:
    players: int
    observers: int
    frame_time_mean: float  # site 0, seconds
    frame_time_mad: float
    synchrony: float  # sites 0 and 1


def run_multisite(
    sizes: Iterable[Tuple[int, int]] = ((2, 0), (3, 0), (4, 0), (2, 2)),
    rtt: float = 0.040,
    frames: int = 900,
) -> List[MultisiteRow]:
    """One uniform-mesh session per ``(players, observers)``."""
    rows = []
    for players, observers in sizes:
        sources = [PadSource(RandomSource(90 + i), player=i) for i in range(players)]
        if observers:
            plan = players_and_observers_plan(
                SyncConfig.paper_defaults(),
                machine_factory=lambda: create_game("counter"),
                player_sources=sources,
                num_observers=observers,
                max_frames=frames,
            )
        else:
            plan = SessionPlan(
                config=SyncConfig.paper_defaults(),
                assignment=InputAssignment.standard(players),
                machines=[create_game("counter") for __ in range(players)],
                sources=sources,
                max_frames=frames,
            )
        session = build_session(plan, NetemConfig.for_rtt(rtt))
        session.run(horizon=600.0)
        _verified(session)
        result = collect_metrics(session, rtt)
        rows.append(
            MultisiteRow(
                players=players,
                observers=observers,
                frame_time_mean=result.frame_time_mean[0],
                frame_time_mad=result.frame_time_mad[0],
                synchrony=result.synchrony,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Ext-B: a late-joining observer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LateJoinRow:
    game: str
    snapshot_bytes: int  # the savestate the joiner loaded
    wire_bytes: int  # that snapshot, encoded
    joined_at_frame: int
    overlap_verified: int  # frames the joiner and the players all ran
    player_frame_time: float  # site 0, seconds


def run_latejoin(
    games: Iterable[str] = ("counter", "pong-py", "shooter", "pong"),
    join_time: float = 2.0,
    rtt: float = 0.040,
    frames: int = 900,
) -> List[LateJoinRow]:
    """Two players; a third site joins as an observer ``join_time`` in."""
    return [_run_latejoin(game, join_time, rtt, frames) for game in games]


def _run_latejoin(game: str, join_time: float, rtt: float, frames: int) -> LateJoinRow:
    plan = players_and_observers_plan(
        SyncConfig.paper_defaults(),
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
    session = build_session(plan, NetemConfig.for_rtt(rtt), excluded_sites=[2])
    engine = plan.build_engine(
        2, [SitePeer(s, site_address(s)) for s in range(3)], donor_site=0
    )
    joiner = DistributedVM(session.loop, session.network, engine, start_delay=join_time)
    register_late_join(session.vms, session.vms[0], joiner_site=2)
    session.vms.append(joiner)
    session.run(horizon=600.0)

    overlap = _verified(session)
    # The snapshot the joiner loaded: the one its donor cached for it.
    snapshot = session.vms[0].runtime.recovery.cache[2]
    return LateJoinRow(
        game=game,
        snapshot_bytes=len(snapshot.state),
        wire_bytes=len(snapshot.encode()),
        joined_at_frame=joiner.engine.joined_at_frame,
        overlap_verified=overlap,
        player_frame_time=mean(session.vms[0].runtime.trace.frame_times()),
    )


# ----------------------------------------------------------------------
# Ext-D: rollback (zero lag) vs lockstep (100 ms lag)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RollbackRow:
    rtt: float
    lockstep_frame_time: float  # the paper's scheme at the same RTT
    frame_time: float  # rollback, site 0, seconds
    frames_verified: int
    rollback_rate: float  # rollbacks per confirmed frame
    replay_overhead: float  # replayed frames per confirmed frame
    max_depth: int
    calm_replay_overhead: float  # the same with calm pads


def run_rollback(
    rtts: Iterable[float] = (0.040, 0.080, 0.160, 0.240),
    toggle_p: float = 0.08,
    calm_toggle_p: float = 0.02,
    frames: int = 900,
    seed: int = 7,
) -> List[RollbackRow]:
    """Random pads toggling each button with ``toggle_p`` per frame, and
    calm ones with ``calm_toggle_p``; lockstep runs the same RTTs."""
    rows = []
    for rtt in rtts:
        stats, frame_time, verified = _run_rollback_point(rtt, frames, toggle_p, seed)
        calm, __, __ = _run_rollback_point(rtt, frames, calm_toggle_p, seed)
        confirmed = max(1, stats.confirmed_frames)
        rows.append(
            RollbackRow(
                rtt=rtt,
                lockstep_frame_time=run_point(rtt, frames=frames).frame_time_mean[0],
                frame_time=frame_time,
                frames_verified=verified,
                rollback_rate=stats.rollbacks / confirmed,
                replay_overhead=stats.replayed_frames / confirmed,
                max_depth=stats.max_replay_depth,
                calm_replay_overhead=calm.replayed_frames / max(1, calm.confirmed_frames),
            )
        )
    return rows


def _run_rollback_point(rtt: float, frames: int, toggle_p: float, seed: int):
    """(site 0's rollback stats, its mean frame time, frames verified)."""
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
    verified = _verified(session)
    vm = session.vms[0]
    return vm.engine.consistency.stats, mean(vm.runtime.trace.frame_times()), verified


# ----------------------------------------------------------------------
# Ext-E: sync bandwidth per site
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BandwidthRow:
    players: int
    send_interval: float  # seconds between flushes
    sent_Bps: float  # site 0
    received_Bps: float
    datagrams_per_s: float


def run_bandwidth(
    cases: Iterable[Tuple[int, float]] = (
        (2, 0.020), (3, 0.020), (4, 0.020), (2, 0.005), (2, 0.050),
    ),
    rtt: float = 0.040,
    frames: int = 900,
    seed: int = 7,
) -> List[BandwidthRow]:
    """One session per ``(players, send_interval)``; rates per simulated second."""
    rows = []
    for players, send_interval in cases:
        config = SyncConfig(send_interval=send_interval)
        plan = SessionPlan(
            config=config,
            assignment=InputAssignment.standard(players),
            machines=[create_game("counter") for __ in range(players)],
            sources=[PadSource(RandomSource(seed + i), player=i) for i in range(players)],
            max_frames=frames,
            seed=seed,
        )
        session = build_session(plan, NetemConfig.for_rtt(rtt), with_time_server=False)
        session.run(horizon=600.0)
        _verified(session)
        duration = frames / config.cfps
        stats = session.vms[0].socket.stats
        rows.append(
            BandwidthRow(
                players=players,
                send_interval=send_interval,
                sent_Bps=stats.bytes_sent / duration,
                received_Bps=stats.bytes_received / duration,
                datagrams_per_s=stats.datagrams_sent / duration,
            )
        )
    return rows
