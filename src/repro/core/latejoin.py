"""Late joiners — savestate transfer plus catch-up (journal extension).

The conference paper's journal version addresses "how to accommodate late
comers".  The mechanism implemented here:

1. The joiner (already listed in the session's input assignment, but absent
   from the start handshake) wakes at ``join_time`` and sends
   ``STATE_REQUEST`` to a donor site until a ``STATE_SNAPSHOT`` arrives.
2. The donor answers at a frame boundary with its machine state *after*
   executing frame ``f`` (so the snapshot is a consistent replica state).
3. The joiner loads the state, seeds its lockstep pointer at ``f + 1``, and
   enters the ordinary frame loop.  Its first ack vector tells the peers it
   holds everything through ``f``, so they stream inputs from ``f + 1`` —
   the normal retransmission path, no special catch-up protocol.
4. A joining *player* (not just an observer) additionally needs peers to
   know from which frame its input bits start gating delivery:
   :meth:`LockstepSync.admit_site` with ``f + 1 + BufFrame`` (its first
   buffered input lands there); earlier frames treat its bits as empty.

Observers join with zero impact on players; joining players briefly stall
peers only if the snapshot transfer outlives their input buffers' lag
window, exactly as a real deployment would.

Note on snapshot cost: the transfer deliberately uses a *full*
``save_state`` blob, not the delta protocol from docs/performance.md — a
cold joiner shares no lineage with the donor, so there is no common base
state for a delta to patch.  The donor pays this once per join; its
per-frame checksum/trace costs are unaffected (those ride the incremental
page-CRC path).

With the sans-IO refactor the joiner is :class:`LateJoinEngine` — the
ordinary :class:`~repro.core.engine.SiteEngine` with the start handshake
replaced by an *acquire* phase (request timer + snapshot wait).  Any
driver can host it: on the simulator the joiner is a
``DistributedVM(loop, network, LateJoinEngine(...), start_delay=join_time)``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engine import (
    Effect,
    PHASE_ACQUIRE,
    SiteEngine,
    SiteRuntime,
    TIMER_PING,
)
from repro.core.lockstep import Lockstep
from repro.core.messages import Message, Resume, StateRequest

TIMER_REQUEST = "state-request"


class LateJoinEngine(SiteEngine):
    """A site that joins a running session from a donor's savestate."""

    #: How often the joiner re-sends STATE_REQUEST.
    REQUEST_INTERVAL = 0.1
    #: Give up (termination ``"acquire-timeout"``) after this many seconds
    #: without a snapshot.
    REQUEST_TIMEOUT = 30.0

    def __init__(
        self,
        runtime: SiteRuntime,
        max_frames: int,
        consistency: Optional[Lockstep] = None,
        *,
        donor_site: int = 0,
        **options: object,
    ) -> None:
        super().__init__(runtime, max_frames, consistency, **options)  # type: ignore[arg-type]
        self.donor_site = donor_site
        self.joined_at_frame: Optional[int] = None
        self._acquire_deadline = 0.0

    def start(self, now: float) -> List[Effect]:
        """Skip the start handshake: request state until a snapshot lands."""
        effects: List[Effect] = []
        self.phase = PHASE_ACQUIRE
        self._acquire_deadline = now + self.REQUEST_TIMEOUT
        self._arm_send(now)
        self._set(TIMER_PING, now)
        self._set(TIMER_REQUEST, now)
        return self._pump(now, effects)

    def _request_message(self) -> Message:
        """The message re-sent to the donor until a snapshot arrives."""
        return StateRequest(self.runtime.site_no, self.runtime.session_id)

    def _seed_lockstep(self, snapshot) -> None:
        """Seat the sync vectors around the acquired snapshot (cold join)."""
        runtime = self.runtime
        # The admission gate peers apply is snapshot + 1 + the
        # *configured* BufFrame; pin our lag there so our first input
        # lands exactly on it (adaptive lag, if enabled, resumes
        # afterwards).
        runtime.lockstep.set_local_lag(runtime.config.buf_frame)
        runtime.lockstep.seed_from_snapshot(snapshot.frame, snapshot.backlog)

    def _on_timer(
        self, kind: str, now: float, effects: List[Effect], late: float
    ) -> None:
        if kind == TIMER_REQUEST:
            if self.phase != PHASE_ACQUIRE:
                return
            if now >= self._acquire_deadline:
                self.runtime.events.emit(
                    "error",
                    now,
                    self.runtime.frame,
                    error=f"no snapshot from donor {self.donor_site} "
                    f"within {self.REQUEST_TIMEOUT}s",
                )
                self._terminate("acquire-timeout", now, effects)
                return
            self._outbox.append(
                (self._request_message(), self.runtime.address_of[self.donor_site])
            )
            self._set(TIMER_REQUEST, now + self.REQUEST_INTERVAL)
            return
        super()._on_timer(kind, now, effects, late)

    def _advance(self, now: float, effects: List[Effect]) -> None:
        if self.phase == PHASE_ACQUIRE:
            runtime = self.runtime
            snapshot = runtime.latest_snapshot
            if snapshot is None:
                return
            if not snapshot.crc_ok():
                # Corrupted in flight: drop it and let the request timer
                # re-ask the donor (whose cache re-serves the same frame).
                runtime.latest_snapshot = None
                runtime.metrics.state_crc_errors.inc()
                runtime.events.emit(
                    "state_crc_error",
                    now,
                    runtime.frame,
                    peer=snapshot.sender_site,
                    at=snapshot.frame,
                )
                return
            runtime.machine.load_state(snapshot.state)
            runtime.metrics.on_state_acquired(len(snapshot.state))
            runtime.events.emit(
                "state_acquire",
                now,
                snapshot.frame + 1,
                snapshot_frame=snapshot.frame,
                bytes=len(snapshot.state),
            )
            self._seed_lockstep(snapshot)
            runtime.frame = snapshot.frame + 1
            runtime.trace.first_frame = runtime.frame
            self.joined_at_frame = runtime.frame
            # The joiner never ran the start handshake; it is live now (and
            # must stop offering HELLO to the master).
            runtime.session.mark_live(now)
            self._clear(TIMER_REQUEST)
            self._frame_cycle(now, effects)
            return
        super()._advance(now, effects)


class ResumeEngine(LateJoinEngine):
    """A crashed-and-restarted site rejoining its suspended session.

    The acquire machinery is the late joiner's, but the handshake and the
    seeding differ:

    * the request is a :class:`~repro.core.messages.Resume` carrying the
      last own frame the donor was seen to ack (the authentication cookie),
    * the lockstep vectors are seeded with
      :meth:`~repro.core.lockstep.LockstepSync.resume_from_snapshot` — the
      donor already holds our inputs through the snapshot frame, so our
      still-unacked window must stay unacked,
    * the input backlog for that window is *replayed* from the local source
      (sources are deterministic functions of the frame number), producing
      bit-identical words, so the resumed run's checksums match a
      never-disconnected twin.
    """

    def __init__(
        self,
        runtime: SiteRuntime,
        max_frames: int,
        consistency: Optional[Lockstep] = None,
        *,
        last_acked_frame: int = -1,
        **options: object,
    ) -> None:
        super().__init__(runtime, max_frames, consistency, **options)
        self.last_acked_frame = last_acked_frame

    def _request_message(self) -> Message:
        return Resume(
            self.runtime.site_no,
            self.runtime.session_id,
            self.last_acked_frame,
        )

    def _seed_lockstep(self, snapshot) -> None:
        runtime = self.runtime
        lockstep = runtime.lockstep
        lockstep.set_local_lag(runtime.config.buf_frame)
        lockstep.resume_from_snapshot(snapshot.frame, snapshot.backlog)
        # Replay our own unacked window f+1-buf .. f; with local lag the
        # replayed words land on slots f+1 .. f+buf, which the donor has
        # not acked, so the ordinary pump retransmits them.
        first = max(0, snapshot.frame + 1 - runtime.config.buf_frame)
        for frame in range(first, snapshot.frame + 1):
            lockstep.buffer_local_input(frame, runtime.source.get(frame))
        runtime.metrics.resumes.inc()


def register_late_join(session_vms, donor_vm, joiner_site: int) -> None:
    """Prepare a running session for a late joiner.

    * every present site marks the joiner absent (no sync traffic to it, no
      gating on it, no pruning hold-back),
    * the donor accepts ``STATE_REQUEST``s,
    * when the donor serves a snapshot at frame ``f``, every present site
      admits the joiner: its inputs gate from ``f + 1 + BufFrame`` (the
      first frame its locally-lagged input can land on) and retransmission
      windows to it start at ``f + 1``.

    In a deployment the admit broadcast rides the session-control channel;
    the harness applies it synchronously, which is equivalent as long as
    no present site is more than ``BufFrame`` frames ahead of the donor —
    lockstep guarantees that.
    """
    buf_frame = donor_vm.runtime.config.buf_frame
    for vm in session_vms:
        if vm.runtime.site_no != joiner_site:
            vm.runtime.lockstep.mark_absent(joiner_site)
    donor_vm.runtime.allow_state_requests = True

    def on_served(site: int, snapshot_frame: int) -> None:
        first_gating = snapshot_frame + 1 + buf_frame
        for vm in session_vms:
            if vm.runtime.site_no != joiner_site:
                vm.runtime.lockstep.admit_site(
                    site, first_gating, ack_hint=snapshot_frame
                )

    donor_vm.engine.on_snapshot_served = on_served
