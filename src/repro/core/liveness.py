"""Peer liveness and the stall ladder: the failure-domain layer.

The sync protocol already generates a steady stream of per-peer traffic —
Sync flushes every 20 ms, RTT pings every 500 ms, control retransmissions —
so liveness needs no extra heartbeat message: :class:`PeerLiveness` simply
timestamps the last *authenticated* datagram heard from each peer (the
runtime only feeds it messages whose session id matched).

:class:`StallLadder` escalates a blocked SyncInput gate on gate-stall time
alone: healthy → degraded → suspended → peer-lost.  A slow peer that is
still talking climbs it like a silent one; the last-heard times only name,
in each record, the gating peers not heard since the gate blocked.  See
``docs/failure-modes.md`` for the full state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: While suspended, control/sync retransmission backs off exponentially
#: (with jitter) from this initial period, doubling up to
#: ``suspend_backoff_max_s``.
SUSPEND_BACKOFF_INITIAL_S = 0.05

#: The ladder's levels above healthy (``StallLadder.level`` is None).
DEGRADED = "degraded"
SUSPENDED = "suspended"


@dataclass(frozen=True)
class Degraded:
    """The gate has been blocked past ``soft_stall_s``: the driver should
    freeze presentation and show "waiting for peer".  Emitted once per
    degraded episode."""

    frame: int
    waiting_on: Tuple[int, ...] = field(default=())
    stalled_for: float = 0.0


@dataclass(frozen=True)
class PeerLost:
    """The gate blocked past ``hard_stall_s``: the engine is suspended and
    will wait ``resume_deadline`` seconds for the peer to heal or RESUME
    before terminating."""

    frame: int
    waiting_on: Tuple[int, ...] = field(default=())
    resume_deadline: float = 0.0


@dataclass(frozen=True)
class Resumed:
    """A degraded or suspended session recovered; presentation may thaw.
    ``suspended_for`` is 0 when recovering from a merely degraded state."""

    frame: int
    suspended_for: float = 0.0


class PeerLiveness:
    """Last-heard bookkeeping for every peer of one site."""

    def __init__(self, peer_sites: Iterable[int]) -> None:
        #: None until the first authenticated message from that peer.
        self.last_heard: Dict[int, Optional[float]] = {
            site: None for site in peer_sites
        }
        #: Bumped on every ``heard``; lets the engine detect "any peer
        #: spoke during this wake-up" without scanning the dict.
        self.mark = 0

    def heard(self, site: int, now: float) -> None:
        """Record an authenticated message from ``site`` at ``now``."""
        if site in self.last_heard:
            self.last_heard[site] = now
            self.mark += 1

    def silent_since(self, sites: Iterable[int], since: float) -> List[int]:
        """The subset of ``sites`` not heard at or after ``since`` (a peer
        never heard at all counts as silent)."""
        last_heard = self.last_heard
        return [
            site
            for site in sites
            if last_heard.get(site) is None or last_heard[site] < since
        ]


class StallLadder:
    """One engine's stall ladder: a gate blocked for ``soft_stall_s`` is
    degraded, for ``hard_stall_s`` suspended.  Suspended, the ladder owns
    the engine's wait on the peer: it probes on a jittered backoff and
    ends ``peer-lost``."""

    def __init__(self, runtime, rng) -> None:
        self.runtime = runtime
        self.rng = rng  # the engine's: the jitter shares the send pump's stream
        #: None (healthy), DEGRADED or SUSPENDED.
        self.level: Optional[str] = None
        self.waiting: Tuple[int, ...] = ()
        self.suspended_at = 0.0
        self.backoff = SUSPEND_BACKOFF_INITIAL_S

    def _jitter(self) -> float:
        """±25% jitter so two suspended sites don't probe in phase."""
        return self.backoff * self.rng.uniform(0.75, 1.25)

    def climb(self, now: float, started: float, effects: list) -> Optional[float]:
        """The gate, blocked since ``started``, is still blocked: degrade
        or suspend as its stall time says.  Returns when the suspended
        wait's first retry is due if this call suspended, else None."""
        runtime = self.runtime
        config = runtime.config
        stalled_for = now - started
        if stalled_for < config.soft_stall_s:
            return None
        if self.level is None:
            self.level = DEGRADED
            waiting = self._record(DEGRADED, now, started)
            effects.append(Degraded(runtime.frame, waiting, stalled_for))
        if stalled_for < config.hard_stall_s:
            return None
        self.level = SUSPENDED
        self.waiting = self._record(SUSPENDED, now, started)
        self.suspended_at = now
        self.backoff = SUSPEND_BACKOFF_INITIAL_S
        effects.append(
            PeerLost(runtime.frame, self.waiting, config.resume_deadline_s)
        )
        return now + self._jitter()

    def _record(self, level: str, now: float, started: float) -> Tuple[int, ...]:
        """The level's record: the gating peers, those not heard since the
        gate blocked, and the stall time.  Returns the gating peers."""
        runtime = self.runtime
        waiting = tuple(runtime.lockstep.waiting_on())
        runtime.events.emit(
            level,
            now,
            runtime.frame,
            waiting_on=list(waiting),
            unresponsive=runtime.liveness.silent_since(waiting, started),
            stalled_for=now - started,
        )
        return waiting

    def recover(self, now: float, started: float, effects: list) -> None:
        """The gate can deliver again: back to healthy, with a ``resumed``
        record and a ``Resumed`` effect."""
        runtime = self.runtime
        if self.level is SUSPENDED:
            took = now - self.suspended_at
            runtime.metrics.suspended_seconds.inc(took)
            runtime.metrics.resumes.inc()
            runtime.lockstep.forget_master_samples()
            detail = {"from": SUSPENDED, "suspended_for": took}
        else:
            took = 0.0
            detail = {"from": DEGRADED, "stalled_for": now - started}
        self.level = None
        runtime.events.emit("resumed", now, runtime.frame, **detail)
        effects.append(Resumed(runtime.frame, took))

    def retry(self, now: float) -> Tuple[list, float]:
        """The 20 ms pump's payloads (control + forced sync windows) at a
        backed-off cadence, so a dead peer is not hammered at frame rate."""
        runtime = self.runtime
        out = runtime.session.poll(now)
        if runtime.session.started:
            out.extend(runtime.sync_broadcast(force=True, now=now))
        self.backoff = min(self.backoff * 2.0, runtime.config.suspend_backoff_max_s)
        return out, now + self._jitter()

    def heard(self, now: float) -> Optional[float]:
        """A peer was heard while suspended: the path may be back, so the
        backoff restarts.  Returns the new retry time, or None."""
        if self.backoff <= SUSPEND_BACKOFF_INITIAL_S:
            return None
        self.backoff = SUSPEND_BACKOFF_INITIAL_S
        return now + self._jitter()

    def give_up(self, now: float) -> str:
        runtime = self.runtime
        runtime.events.emit(
            "peer_lost",
            now,
            runtime.frame,
            waiting_on=list(self.waiting),
            suspended_for=now - self.suspended_at,
        )
        return "peer-lost"
