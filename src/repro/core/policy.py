"""Adaptive consistency: per-site lockstep↔rollback switching.

The paper fixes one consistency mechanism for the whole session: local-lag
lockstep with ``BufFrame`` ≈ 100 ms.  That choice is only right while the
network cooperates — past ``RTT/2 > BufFrame · TimePerFrame`` every frame
blocks on the input gate and the game collapses to the network's pace.
Rollback (:mod:`repro.core.rollback`) keeps the frame rate at any RTT but
pays CPU for replay and misprediction artifacts the paper's LAN deployment
never needed.

This module makes the choice *per site and per RTT regime*:

* :class:`LagTuner` — the hysteretic half of adaptive local lag.  The raw
  proposal (``ceil((RTT/2 + margin) · CFPS)``) chases every RTT sample;
  the tuner applies the first resize immediately (start-up convergence)
  and afterwards requires a minimum interval between changes, so jitter
  cannot oscillate the lag.
* :class:`ConsistencyPolicy` — watches the *per-peer* smoothed RTT
  (:meth:`repro.core.rtt.RttEstimator.peer_rtt`) and recommends a mode
  through a hysteresis band: rollback once any peer link degrades past
  ``POLICY_ROLLBACK_ABOVE_S``, back to lockstep only when every link is
  below ``POLICY_LOCKSTEP_BELOW_S``, with a dwell time between
  transitions.
* :class:`Adaptive` — the consistency part that actually runs in either
  mode (it holds a lockstep and a rollback part) and switches mid-session.

Switch protocol
---------------

A mode is a *local* choice: a site's lag and speculation only move where
its own frames execute, and its wire traffic (SYNC windows, acks) is
identical in both modes.  The handshake therefore carries no state — it
exists so the switch is *observable and abortable*:

1. the proposer sends ``SWITCH_REQ(seq, mode)`` to every peer and keeps
   retransmitting (control priority, never dropped by the budget),
2. each peer records the announced mode and answers ``SWITCH_ACK(seq)``
   — plain lockstep peers ack too, so mixed sessions interoperate,
3. on acks from *all* peers the proposer commits at the next frame
   boundary; if any ack is missing after ``POLICY_SWITCH_TIMEOUT_S`` the
   proposal is aborted and the site stays in its current mode.

A partition during the handshake can therefore delay a switch but never
half-apply one.  Entering rollback syncs the speculative machine from the
confirmed shadow (delta pages) before the first speculation; leaving
rollback first drains speculation (the gate blocks until every
speculated frame is confirmed) so lockstep resumes from a state the
shadow has proven.  In both modes the confirmed machine is
``runtime.machine``, so the consistency trace is continuous across
switches and bit-identical to a never-switched lockstep twin (a switch
carries the local lag across; only ``adaptive_lag`` moves it).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.config import SyncConfig
from repro.core.engine import (
    GameMachine,
    PHASE_FRAME_WAIT,
    PHASE_GATE,
    SiteEngine,
)
from repro.core.inputs import InputAssignment, InputSource
from repro.core.lockstep import Lockstep
from repro.core.messages import (
    MODE_LOCKSTEP,
    MODE_ROLLBACK,
    Message,
    SwitchRequest,
)
from repro.core.multisite import SessionPlan, build_session
from repro.core.rollback import PredictorSpec, Rollback
from repro.core.rtt import RttEstimator

#: Human-readable mode names for events, snapshots and test output.
MODE_NAMES = {MODE_LOCKSTEP: "lockstep", MODE_ROLLBACK: "rollback"}

#: Safety margin over the one-way estimate (covers send batching and
#: slice delays) when sizing the adaptive lag, in seconds.
ADAPTIVE_MARGIN = 0.035

#: Bounds for the adaptive lag, in frames.
ADAPTIVE_MIN_BUF = 2
ADAPTIVE_MAX_BUF = 15

#: Hysteresis for the adaptive lag tuner: after the first (immediate)
#: resize, further changes are applied at most once per this many seconds,
#: so RTT jitter cannot make the lag oscillate.
ADAPTIVE_WINDOW_S = 1.0

#: A site speculates (rollback mode) while any peer's smoothed RTT is above
#: this threshold, in seconds...
POLICY_ROLLBACK_ABOVE_S = 0.140

#: ...and returns to plain lockstep once every peer's smoothed RTT is back
#: below this one.  The gap between the two is the hysteresis band that
#: keeps a jittery link from flapping modes.
POLICY_LOCKSTEP_BELOW_S = 0.100

#: Minimum dwell time between mode switches, in seconds.
POLICY_DWELL_S = 2.0

#: A proposed switch not acked by every peer within this many seconds is
#: aborted: the site stays in its current mode (and may re-propose after
#: the dwell).  This is what makes a partition during a switch safe — the
#: proposer never half-commits.
POLICY_SWITCH_TIMEOUT_S = 1.0


class LagTuner:
    """Hysteretic filter between the RTT estimate and ``set_local_lag``.

    ``propose`` returns the lag to apply now, or None to leave it alone.
    The first proposal is applied immediately — a session that started
    with a default lag should converge as soon as the first RTT sample
    lands.  Afterwards at least ``ADAPTIVE_WINDOW_S`` must have passed
    since the last applied change, so a monotone RTT ramp moves the lag
    at most once per window and sample jitter cannot flip it back and
    forth.
    """

    def __init__(self, config: SyncConfig) -> None:
        self._config = config
        self._last_change: Optional[float] = None

    def target_for(self, one_way: float) -> int:
        """The raw (unfiltered) lag target for a one-way estimate."""
        needed = math.ceil((one_way + ADAPTIVE_MARGIN) * self._config.cfps)
        return max(ADAPTIVE_MIN_BUF, min(ADAPTIVE_MAX_BUF, needed))

    def propose(self, now: float, one_way: float, current: int) -> Optional[int]:
        """Lag to apply now, or None (unchanged, or window suppressed)."""
        target = self.target_for(one_way)
        if target == current:
            return None
        if (
            self._last_change is not None
            and now - self._last_change < ADAPTIVE_WINDOW_S
        ):
            return None
        self._last_change = now
        return target


class ConsistencyPolicy:
    """Per-peer RTT watcher recommending lockstep or rollback.

    The decision rides the *worst* peer link: lockstep blocks on the
    slowest peer's inputs, so one bad link is enough to justify
    speculation.  Hysteresis comes from two thresholds (a link must
    degrade past ``POLICY_ROLLBACK_ABOVE_S`` to leave lockstep but
    recover below ``POLICY_LOCKSTEP_BELOW_S`` to return) plus a dwell
    time between transitions — an aborted proposal also arms the dwell,
    so a partitioned site does not spam re-proposals.
    """

    def __init__(self) -> None:
        self._last_transition: Optional[float] = None

    def note_transition(self, now: float) -> None:
        """Record a committed or aborted switch (arms the dwell timer)."""
        self._last_transition = now

    def worst_peer_rtt(self, rtt: RttEstimator, peer_sites: List[int]) -> float:
        if not peer_sites:
            return rtt.rtt
        return max(rtt.peer_rtt(site) for site in peer_sites)

    def desired_mode(
        self,
        now: float,
        rtt: RttEstimator,
        peer_sites: List[int],
        current_mode: int,
    ) -> Optional[int]:
        """Mode the site should move to, or None to stay put."""
        if not rtt.samples:
            return None
        if (
            self._last_transition is not None
            and now - self._last_transition < POLICY_DWELL_S
        ):
            return None
        worst = self.worst_peer_rtt(rtt, peer_sites)
        if current_mode == MODE_LOCKSTEP and worst > POLICY_ROLLBACK_ABOVE_S:
            return MODE_ROLLBACK
        if current_mode == MODE_ROLLBACK and worst < POLICY_LOCKSTEP_BELOW_S:
            return MODE_LOCKSTEP
        return None


class _PendingSwitch:
    """A proposed mode switch awaiting acks from every peer."""

    __slots__ = ("seq", "mode", "deadline", "resend_at", "acked")

    def __init__(self, seq: int, mode: int, deadline: float) -> None:
        self.seq = seq
        self.mode = mode
        self.deadline = deadline
        self.resend_at = 0.0
        self.acked = False


class Adaptive(Lockstep):
    """The consistency part that runs lockstep while the network allows and
    switches to rollback (and back) when the consistency policy says so.

    It holds one :class:`~repro.core.lockstep.Lockstep` and one
    :class:`~repro.core.rollback.Rollback` part and delegates every step
    to the active one.  In lockstep mode it additionally keeps the
    rollback bookkeeping (confirmation counter, predictor observations)
    warm so a switch is cheap.  ``runtime.machine`` is the confirmed
    machine in *both* modes, so the consistency trace never breaks across
    a switch.
    """

    #: Retransmission period for an unacked SWITCH_REQ.
    SWITCH_RESEND = 0.05

    #: Handshake-history retention (see ``switch_log``).
    SWITCH_LOG_LIMIT = 256

    def __init__(
        self,
        spec_machine: GameMachine,
        speculation_window: int = 60,
        predictor: PredictorSpec = None,
        initial_mode: int = MODE_LOCKSTEP,
    ) -> None:
        self.lockstep = Lockstep()
        self.rollback = Rollback(spec_machine, speculation_window, predictor)
        self.mode = initial_mode
        #: Committed switches this session (one per ``switch_commit``).
        self.policy_switch_count = 0
        #: Recent handshake history as ``(kind, time, frame, mode, seq)``
        #: tuples, kind ∈ {propose, abort, commit}.  Bounded: a flapping
        #: link can propose on every policy tick for hours, and an
        #: unbounded list would grow without limit in a long-lived
        #: session.  Evictions are counted (``switch_log_evictions``) so
        #: a post-mortem knows the log is a suffix, not the whole story.
        self.switch_log: Deque[Tuple[str, float, int, int, int]] = deque(
            maxlen=self.SWITCH_LOG_LIMIT
        )
        self._pending_switch: Optional[_PendingSwitch] = None
        #: True while leaving rollback: the gate blocks until every
        #: speculated frame is confirmed, then the mode flips.
        self._settling = False
        self._switch_seq = 0

    def attach(self, engine: SiteEngine) -> None:
        super().attach(engine)
        self.lockstep.attach(engine)
        self.rollback.bind(engine)  # lag is this part's to manage
        self.policy = ConsistencyPolicy()

    # ------------------------------------------------------------------
    @property
    def mode_name(self) -> str:
        return MODE_NAMES.get(self.mode, str(self.mode))

    def _active(self) -> Lockstep:
        return self.rollback if self.mode == MODE_ROLLBACK else self.lockstep

    def _log_switch(
        self, kind: str, now: float, frame: int, mode: int, seq: int
    ) -> None:
        log = self.switch_log
        if len(log) == log.maxlen:
            self.runtime.metrics.switch_log_evictions.inc()
        log.append((kind, now, frame, mode, seq))

    # ------------------------------------------------------------------
    # Mode-dispatched frame-loop steps
    # ------------------------------------------------------------------
    def try_ready(self, now: float) -> Optional[int]:
        rollback = self.rollback
        if self.mode == MODE_ROLLBACK:
            if not self._settling:
                return rollback.try_ready(now)
            # Leaving rollback: confirm (only) until speculation drains,
            # then continue this very gate check in lockstep mode.
            rollback.confirm_pending(now)
            if rollback.confirmed_frontier < self.runtime.frame - 1:
                return None
            self._finish_switch(MODE_LOCKSTEP, now)
        # Plain delivery gate, keeping predictor/frontier state warm.
        if not self.runtime.lockstep.can_deliver():
            return None
        return rollback.deliver_confirmed()

    def commit(
        self, merged: int, stall: float, sync_adjust: float, now: float
    ) -> None:
        self._active().commit(merged, stall, sync_adjust, now)

    def settled(self, now: float) -> bool:
        return self._active().settled(now)

    # ------------------------------------------------------------------
    # Policy evaluation (runs on the ~20 ms flush cadence)
    # ------------------------------------------------------------------
    def flush_tick(self, now: float) -> List[Tuple[Message, str]]:
        runtime = self.runtime
        engine = self.engine
        if not runtime.session.started or engine.done:
            return []
        active = engine.phase in (PHASE_GATE, PHASE_FRAME_WAIT)
        pending = self._pending_switch
        if pending is not None:
            if not active:
                # The frame horizon arrived mid-handshake; the proposal
                # is moot (peers already recorded the announced mode,
                # which is harmless telemetry).
                self._pending_switch = None
                return []
            if not pending.acked and all(
                runtime.switch_acks.get(site, -1) >= pending.seq
                for site in runtime.peer_sites
            ):
                pending.acked = True
            if pending.acked:
                # A flush is always at a frame boundary: Transition runs
                # within the pump that opens the gate.
                self._pending_switch = None
                self._commit_switch(pending.mode, now)
                return []
            if now >= pending.deadline:
                self._pending_switch = None
                self.policy.note_transition(now)
                runtime.events.emit(
                    "switch_abort",
                    now,
                    runtime.frame,
                    mode=pending.mode,
                    seq=pending.seq,
                )
                self._log_switch(
                    "abort", now, runtime.frame, pending.mode, pending.seq
                )
                return []
            if now >= pending.resend_at:
                return self._switch_requests(pending, now)
            return []
        if self._settling or not active:
            return []
        desired = self.policy.desired_mode(
            now, runtime.rtt, runtime.peer_sites, self.mode
        )
        if desired is not None and desired != self.mode:
            return self._propose_switch(desired, now)
        return []

    def _propose_switch(self, mode: int, now: float) -> List[Tuple[Message, str]]:
        runtime = self.runtime
        self._switch_seq += 1
        pending = _PendingSwitch(
            seq=self._switch_seq,
            mode=mode,
            deadline=now + POLICY_SWITCH_TIMEOUT_S,
        )
        self._pending_switch = pending
        runtime.events.emit(
            "switch_propose",
            now,
            runtime.frame,
            mode=mode,
            seq=pending.seq,
        )
        self._log_switch("propose", now, runtime.frame, mode, pending.seq)
        return self._switch_requests(pending, now)

    def _switch_requests(
        self, pending: _PendingSwitch, now: float
    ) -> List[Tuple[Message, str]]:
        """One SWITCH_REQ per peer that has not acked ``pending`` yet."""
        runtime = self.runtime
        pending.resend_at = now + self.SWITCH_RESEND
        message = SwitchRequest(
            sender_site=runtime.site_no,
            session_id=runtime.session_id,
            seq=pending.seq,
            mode=pending.mode,
            frame=runtime.frame,
        )
        out: List[Tuple[Message, str]] = []
        for site in runtime.peer_sites:
            if runtime.switch_acks.get(site, -1) >= pending.seq:
                continue
            destination = runtime.address_of.get(site)
            if destination is not None:
                out.append((message, destination))
        return out

    def _commit_switch(self, mode: int, now: float) -> None:
        if mode == MODE_ROLLBACK:
            # The shadow has executed every delivered frame; bring the
            # (stale since the last rollback stint) speculative machine
            # up to it before the first speculation.
            self.rollback.sync_spec_from_shadow()
            self.rollback.reseat_frontier()
            self._finish_switch(MODE_ROLLBACK, now)
        else:
            # Leaving rollback takes two steps: the gate first drains
            # speculation (see try_ready), then the mode flips.
            self._settling = True

    # ------------------------------------------------------------------
    # Desync recovery: dispatch on the live mode.  In lockstep mode the
    # part rewinds like plain lockstep, but the rollback frontier
    # bookkeeping must track the delivery pointer so a later switch (or a
    # settle in progress) stays coherent: every restore is followed by a
    # replay step, which reseats it.
    # ------------------------------------------------------------------
    def resync_restore(self, state: bytes, anchor: int, now: float) -> None:
        self._active().resync_restore(state, anchor, now)

    def resync_progress(self, now: float) -> None:
        self._active().resync_progress(now)
        if self.mode != MODE_ROLLBACK:
            self.rollback.reseat_frontier()

    def finish_resync(self, now: float) -> None:
        # In rollback mode this rebuilds the speculative machine from the
        # healed shadow; in lockstep mode the spec machine is
        # stale-but-idle and a later switch re-syncs it (_commit_switch)
        # before any speculation.
        self._active().finish_resync(now)

    def _finish_switch(self, mode: int, now: float) -> None:
        self._settling = False
        self.mode = mode
        self.policy_switch_count += 1
        self.policy.note_transition(now)
        runtime = self.runtime
        runtime.events.emit(
            "switch_commit", now, runtime.frame, mode=mode
        )
        self._log_switch("commit", now, runtime.frame, mode, self._switch_seq)


def build_adaptive_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    speculation_window: int = 60,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
    predictor: PredictorSpec = None,
    initial_mode: int = MODE_LOCKSTEP,
    game_id: str = "adaptive",
):
    """An adaptive-consistency session on the simulator:
    :func:`build_session` with every site an :class:`Adaptive` part that
    may switch modes mid-session, under the paper's default local lag
    (the lockstep starting point)."""
    machines = [(game_factory(), game_factory()) for _ in sources]
    plan = SessionPlan(
        config=config if config is not None else SyncConfig(),
        assignment=InputAssignment.standard(len(sources)),
        machines=[confirmed for confirmed, _ in machines],
        sources=sources,
        game_id=game_id,
        max_frames=frames,
        frame_compute_time=frame_compute_time,
        seed=seed,
        consistency=[
            Adaptive(spec, speculation_window, predictor, initial_mode)
            for _, spec in machines
        ],
    )
    return build_session(plan, netem)
