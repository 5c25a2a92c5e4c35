"""State transfer and desync recovery: one part that owns its messages.

Late join, resume and resync are one exchange — request, serve,
CRC-check, restore:

* late join: STATE_REQUEST to the donor, which serves its live image plus
  input backlog, cached per joiner;
* resume: RESUME(last_acked_frame) to the donor, served the same way;
* resync: RESUME(resync_frame=anchor) to the authority, which serves the
  savestate it retained at the anchor.

:class:`Recovery` registers the exchange's four message types in the
runtime's dispatch table (STATE_REQUEST, RESUME, STATE_DIGEST,
STATE_SNAPSHOT), validates each at receipt and parks a request until the
engine reaches a serve point.  It owns the engine's ``recover`` phase,
an acquire or a resync episode (``anchor`` ≥ 0): :meth:`step` on every
pump, :meth:`retry` and :meth:`give_up` on its timers.  The engine also
calls :meth:`serve` at serve points and :meth:`open_episode`.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.liveness import Resumed
from repro.core.messages import (
    FEATURE_DIGEST,
    Message,
    Resume,
    StateDigest,
    StateRequest,
    StateSnapshot,
)
from repro.core.resync import RESYNC_WINDOW_S, DigestTracker, Divergence, ResyncLadder

#: Serve-request kinds, in the order a serve point answers them.
JOIN, RESUME, RESYNC = "join", "resume", "resync"

Replies = List[Tuple[Message, str]]

#: Retry period of the recover wait: the state request (acquire), unagreed
#: digests and the snapshot re-request (resync) go out at this cadence
#: until answered or timed out.
REQUEST_INTERVAL = 0.1
#: An acquiring site gives up (``acquire-timeout``) after this long
#: without a snapshot.
REQUEST_TIMEOUT = 30.0


class Recovery:
    """One site's state transfer: the serve, the acquire (late join or
    resume) and the resync episode."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        #: The engine's consistency part: it rewinds and replays a resync.
        self.consistency = None
        #: The site whose savestate this one acquires (None: it entered by
        #: the handshake) and the RESUME cookie (None: a late join's
        #: STATE_REQUEST).  Set by :meth:`attach`.
        self.donor_site: Optional[int] = None
        self.last_acked_frame: Optional[int] = None
        #: First frame an acquiring site executed (None until it has).
        self.joined_at: Optional[int] = None
        #: Set on a late-join donor: it answers STATE_REQUESTs.
        self.donor = False
        #: Harness hook fired when this site first snapshots for a
        #: requester: ``callback(site, snapshot_frame)``.  Stands in for the
        #: session-control broadcast announcing a joiner.
        self.on_snapshot_served: Optional[Callable[[int, int], None]] = None
        #: Per-requester snapshot cache: repeated STATE_REQUESTs (the joiner
        #: retries until one arrives) must all answer with the *same* frame,
        #: or the admission bookkeeping would race the joiner's choice.
        self.cache: Dict[int, StateSnapshot] = {}
        #: Validated requests parked until the next serve point:
        #: kind → (requester, anchor frame or None).
        self.requests: Dict[str, Tuple[int, Optional[int]]] = {}
        #: The highest-frame snapshot received and not yet taken.
        self.snapshot: Optional[StateSnapshot] = None
        #: Savestates at the last ``RETAIN_WINDOWS`` digest frames: the
        #: authority serves resyncs and restores its own machine from them.
        self.retained: "OrderedDict[int, bytes]" = OrderedDict()
        #: Live divergence detection: folds the periodic state
        #: digests into agreement/divergence facts.  Built whenever the
        #: config enables digests; *used* only once FEATURE_DIGEST is
        #: granted for the session (:attr:`digest_active`).
        interval = runtime.config.state_digest_interval
        self.digests: Optional[DigestTracker] = (
            DigestTracker(runtime.site_no, interval) if interval is not None else None
        )
        #: Divergences proven since the engine's last pump drained them.
        self.divergences: List[Divergence] = []
        #: The site that serves resync snapshots: the lowest site number,
        #: so both ends of a divergence pick it without negotiation.  With
        #: one divergent pair it holds the true timeline *or* provably
        #: agreed state at the anchor (agreement there means both machines
        #: were bit-identical).
        self.authority = min([runtime.site_no] + runtime.peer_sites)
        #: Resync: the flap budget, then the open episode's anchor (-1:
        #: none), the frame the loop froze at (the consistency part replays
        #: up to it), its start, and whether this site has restored yet.
        self.ladder = ResyncLadder()
        self.anchor = -1
        self.frozen = 0
        self.started = 0.0
        self.restored = False

    def attach(
        self, consistency, donor_site: Optional[int], last_acked_frame: Optional[int]
    ) -> None:
        """Called once, by the engine that runs this site."""
        if donor_site is not None and consistency.spec_machine is not None:
            raise ValueError("state transfer is lockstep-only: no speculating joiner")
        self.consistency = consistency
        self.donor_site = donor_site
        self.last_acked_frame = last_acked_frame
        # An acquiring site is seated by its snapshot (LockstepSync._seat).
        self.runtime.lockstep.seated = donor_site is None

    def handlers(self) -> dict:
        """This part's rows of the runtime's dispatch table."""
        return {
            StateRequest: self._on_state_request,
            Resume: self._on_resume,
            StateDigest: self._on_digest,
            StateSnapshot: self._on_snapshot,
        }

    # ------------------------------------------------------------------
    # Receive: validate, then park or fold.  Handlers return no replies.
    # ------------------------------------------------------------------
    def _on_state_request(
        self, message: StateRequest, arrived_at: float, now: float
    ) -> Replies:
        """Park a late joiner's request: to a donor, from this session, from
        a known site that is absent (or already has its snapshot cached).
        Serving a present site would re-admit it behind its own inputs."""
        runtime = self.runtime
        sender = message.sender_site
        if not self.donor:
            error = "not a donor"
        elif message.session_id != runtime.session_id:
            error = "wrong session"
        elif sender not in runtime.peer_sites:
            error = "unknown site"
        elif not (runtime.lockstep.is_absent(sender) or sender in self.cache):
            error = "present site"
        else:
            self.requests[JOIN] = (sender, None)
            return []
        runtime.events.emit(
            "state_request_reject", now, runtime.frame, peer=sender, error=error
        )
        return []

    def _on_resume(self, message: Resume, arrived_at: float, now: float) -> Replies:
        """Park an authenticated RESUME: this session, a known seat, and a
        cookie no newer than what we know that seat received."""
        runtime = self.runtime
        sender = message.sender_site
        if (
            message.session_id == runtime.session_id
            and sender in runtime.peer_sites
            and (
                message.last_acked_frame < 0
                or message.last_acked_frame <= runtime.lockstep.last_rcv_frame[sender]
            )
        ):
            if message.resync_frame is None:
                self.requests[RESUME] = (sender, None)
            else:
                self.requests[RESYNC] = (sender, message.resync_frame)
        else:
            runtime.events.emit(
                "resume_reject",
                now,
                runtime.frame,
                peer=sender,
                claimed=message.last_acked_frame,
                resync=message.resync_frame,
            )
        return []

    def _on_digest(
        self, message: StateDigest, arrived_at: float, now: float
    ) -> Replies:
        runtime = self.runtime
        digests = self.digests
        if (
            message.session_id == runtime.session_id
            and message.sender_site in runtime.peer_sites
            and digests is not None
        ):
            divergence = digests.on_peer_digest(
                message.sender_site, message.frame, message.checksum
            )
            runtime.lockstep.retain_floor = digests.retain_floor()
            if divergence is not None:
                self.divergences.append(divergence)
                runtime.events.emit(
                    "digest_mismatch",
                    now,
                    runtime.frame,
                    peer=divergence.peer,
                    at=divergence.frame,
                    agreed=divergence.agreed,
                )
        return []

    def _on_snapshot(
        self, message: StateSnapshot, arrived_at: float, now: float
    ) -> Replies:
        if self.snapshot is None or message.frame > self.snapshot.frame:
            self.snapshot = message
        return []

    # ------------------------------------------------------------------
    # Digests: recorded as frames execute, piggybacked on the flush
    # ------------------------------------------------------------------
    @property
    def digest_active(self) -> bool:
        """True when FEATURE_DIGEST was granted for this session — the
        precondition for recording/sending state digests (a plain v2
        peer's decoder rejects any batch containing an unknown type)."""
        return self.digests is not None and bool(
            self.runtime.session.session_features & FEATURE_DIGEST
        )

    def note_own_digest(self, frame: int, checksum: int) -> None:
        """Record a digest frame: retain a savestate, queue the digest for
        the flush, settle any stashed peer digests for this frame.

        No-op off digest frames or while FEATURE_DIGEST is not granted.
        The caller passes the checksum it already computed for the trace,
        so digest frames cost one extra ``save_state`` and nothing else.
        """
        runtime = self.runtime
        tracker = self.digests
        if tracker is None or not tracker.is_digest_frame(frame):
            return
        if not self.digest_active:
            return
        self.retained[frame] = runtime.machine.save_state()
        while len(self.retained) > DigestTracker.RETAIN_WINDOWS:
            self.retained.popitem(last=False)
        found = tracker.record_own(frame, checksum)
        runtime.lockstep.retain_floor = tracker.retain_floor()
        if found:
            self.divergences.extend(found)

    def digest_messages(self, unagreed: bool = False) -> Replies:
        """State digests, one copy per peer: the freshly recorded ones
        (piggybacked on the flush, they coalesce into the SYNC's BATCH),
        or every one not yet known-agreed (``unagreed``: re-sent while a
        resync episode is open; folding one twice is idempotent)."""
        if not self.digest_active:
            return []
        runtime = self.runtime
        digests = self.digests
        out: Replies = []
        entries = digests.unagreed() if unagreed else digests.drain_outbox()
        for frame, checksum in entries:
            message = StateDigest(runtime.site_no, runtime.session_id, frame, checksum)
            body_cost = len(message._encode_body()) + 2  # + batch member header
            for site in runtime.peer_sites:
                runtime.metrics.digest_bytes_tx.inc(body_cost)
                out.append((message, runtime.address_of[site]))
        return out

    # ------------------------------------------------------------------
    # The exchange: request, serve, accept, restore
    # ------------------------------------------------------------------
    def request(self, now: float) -> Replies:
        """The one request builder: what a waiting site re-sends on its
        retry tick — a late joiner's STATE_REQUEST or a resumer's RESUME
        to the donor, or a resync slave's RESUME upgraded with the anchor
        to the authority (nothing once restored, or on the authority)."""
        runtime = self.runtime
        site, session = runtime.site_no, runtime.session_id
        if self.anchor < 0:
            server = self.donor_site
            if self.last_acked_frame is None:
                message = StateRequest(site, session)
            else:
                message = Resume(site, session, self.last_acked_frame)
        else:
            server = self.authority
            if self.restored or server == site:
                return []
            acked = runtime.lockstep.last_ack_frame[server]
            message = Resume(site, session, acked, resync_frame=self.anchor)
            runtime.events.emit(
                "resync_request", now, runtime.frame, peer=server, anchor=self.anchor
            )
        return [(message, runtime.address_of[server])]

    def serve(self, now: float, joins: bool = False) -> Replies:
        """Answer the parked requests: late joins only at a committed frame
        (``joins``), resumes and resyncs at every serve point — a donor
        stalled at its gate must answer, its snapshot unblocks the gate.

        A join is snapshotted once and re-served from the cache, keeping
        admission deterministic when the first reply is lost.  A resume
        hits the cache only within one episode (the donor does not
        advance while blocked on the requester).  A resync serves the
        copy retained when the anchor executed, and opens no episode
        here: the lockstep gate stalls this site while the requester is
        frozen.  An acquiring site has nothing to serve until it joins.
        """
        runtime = self.runtime
        out: Replies = []
        if not runtime.lockstep.seated:
            return out
        for kind in (JOIN, RESUME, RESYNC) if joins else (RESUME, RESYNC):
            if kind not in self.requests:
                continue
            requester, anchor = self.requests.pop(kind)
            if kind == RESYNC:
                if self.authority != runtime.site_no:
                    error = "not authority"
                elif anchor not in self.retained:
                    error = "anchor not retained"
                else:
                    error = None
                if error is not None:
                    runtime.events.emit(
                        "resync_reject",
                        now,
                        runtime.frame,
                        peer=requester,
                        anchor=anchor,
                        error=error,
                    )
                    continue
                snapshot = self._snapshot(requester, anchor)
                runtime.events.emit(
                    "resync_serve",
                    now,
                    runtime.frame,
                    peer=requester,
                    anchor=anchor,
                    bytes=len(snapshot.state),
                )
            else:
                snapshot = self.cache.get(requester)
                if snapshot is None or (
                    kind == RESUME and snapshot.frame != runtime.frame - 1
                ):
                    snapshot = self.cache[requester] = self._snapshot(requester, None)
                    runtime.events.emit(
                        "state_serve",
                        now,
                        runtime.frame,
                        peer=requester,
                        snapshot_frame=snapshot.frame,
                        bytes=len(snapshot.state),
                    )
                    if self.on_snapshot_served is not None:
                        self.on_snapshot_served(requester, snapshot.frame)
            runtime.metrics.on_state_served(len(snapshot.state))
            out.append((snapshot, runtime.address_of[requester]))
        return out

    def _snapshot(self, requester: int, anchor: Optional[int]) -> StateSnapshot:
        """The one snapshot builder: the live image after the last executed
        frame plus every other site's inputs buffered beyond it, or the
        savestate retained at ``anchor`` with an empty backlog."""
        runtime = self.runtime
        lockstep = runtime.lockstep
        if anchor is None:
            frame = runtime.frame - 1
            backlog = [
                lockstep.ibuf.range_for(site, frame + 1, last)
                if site != requester and last > frame
                else []
                for site, last in enumerate(lockstep.last_rcv_frame)
            ]
            state = runtime.machine.save_state()
        else:
            frame, state = anchor, self.retained[anchor]
            backlog = [[] for __ in range(lockstep.num_sites)]
        site, session = runtime.site_no, runtime.session_id
        return StateSnapshot(site, session, frame, state, backlog, zlib.crc32(state))

    def accept(self, now: float) -> Optional[StateSnapshot]:
        """The one acceptance check, shared by acquire and resync: take the
        received snapshot if it is fresh, from the server this site waits
        on in this session, and intact.

        Only a resync can be stale: a snapshot not at the open anchor, or
        one agreement overtook in flight (restoring backwards would be
        wrong, and inputs below the new floor may be pruned) is dropped
        silently.  A foreign one leaves a ``snapshot_reject`` record, a
        corrupted one a ``state_crc_error`` record; the retry tick then
        re-asks the server.
        """
        snapshot, self.snapshot = self.snapshot, None
        if snapshot is None:
            return None
        runtime = self.runtime
        if self.anchor < 0:
            server = self.donor_site
        else:
            server = self.authority
            frame = snapshot.frame
            if frame != self.anchor or self.digests.last_agreed > frame:
                return None
        if snapshot.sender_site != server or snapshot.session_id != runtime.session_id:
            runtime.events.emit(
                "snapshot_reject",
                now,
                runtime.frame,
                peer=snapshot.sender_site,
                session=snapshot.session_id,
                at=snapshot.frame,
            )
            return None
        if not snapshot.crc_ok():
            runtime.events.emit(
                "state_crc_error",
                now,
                runtime.frame,
                peer=snapshot.sender_site,
                at=snapshot.frame,
            )
            return None
        return snapshot

    def restore(self, snapshot: StateSnapshot, now: float) -> None:
        """The one restore.  In an episode the consistency part rewinds to
        the anchor and replays toward the frozen frame from retained
        inputs.  Otherwise the site acquires: it loads the image, seats
        its lockstep around it and goes live at the frame after it.

        A late joiner's first ack vector tells the peers it holds
        everything through the snapshot frame.  A resumer's donor already
        holds its inputs through that frame, so its unacked window is
        *replayed* from the local source (deterministic in the frame
        number): the resumed run matches a never-disconnected twin.
        """
        runtime = self.runtime
        if self.anchor >= 0:
            self.consistency.resync_restore(snapshot.state, snapshot.frame, now)
            # Own digests past the anchor came from divergent state; the
            # replay re-records them.
            self.digests.rewind(snapshot.frame)
            self.restored = True
            runtime.events.emit(
                "resync_restore",
                now,
                runtime.frame,
                anchor=snapshot.frame,
                frozen=self.frozen,
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
        lockstep = runtime.lockstep
        buf_frame = runtime.config.buf_frame
        # The admission gate peers apply is snapshot + 1 + the *configured*
        # BufFrame; pin our lag there so our first input lands exactly on
        # it (adaptive lag, if enabled, resumes afterwards).
        lockstep.set_local_lag(buf_frame)
        if self.last_acked_frame is None:
            lockstep.seed_from_snapshot(snapshot.frame, snapshot.backlog)
        else:
            lockstep.resume_from_snapshot(snapshot.frame, snapshot.backlog)
            # Our own window f+1-buf .. f lands, with local lag, on slots
            # f+1 .. f+buf, which the donor has not acked: the ordinary
            # pump retransmits them.
            first = max(0, snapshot.frame + 1 - buf_frame)
            for frame in range(first, snapshot.frame + 1):
                lockstep.buffer_local_input(frame, runtime.source.get(frame))
            runtime.metrics.resumes.inc()
        runtime.frame = self.joined_at = snapshot.frame + 1
        runtime.trace.first_frame = runtime.frame
        # The site never ran the start handshake; it is live now (and must
        # stop offering HELLO to the master).
        runtime.session.mark_live(now)

    # ------------------------------------------------------------------
    # The resync episode
    # ------------------------------------------------------------------
    def open_episode(self, divergence: Divergence, now: float) -> Optional[Replies]:
        """Open an episode on a proven divergence and return the slave's
        request for the authority's snapshot (the authority restores its
        own at once); None: end the session ``desync`` instead.
        """
        runtime = self.runtime
        runtime.events.emit(
            "desync",
            now,
            runtime.frame,
            peer=divergence.peer,
            at=divergence.frame,
            agreed=divergence.agreed,
            own=divergence.own_checksum,
            theirs=divergence.peer_checksum,
        )
        if not self.ladder.begin_episode(now):
            runtime.events.emit(
                "resync_quarantine",
                now,
                runtime.frame,
                episodes=len(self.ladder.episodes),
                window_s=RESYNC_WINDOW_S,
            )
            return None
        anchor = self.digests.last_agreed
        if anchor < 0:
            # No digest ever agreed (divergence from frame 0, or total
            # digest loss): no trustworthy state anywhere to restore from.
            runtime.events.emit("resync_no_anchor", now, runtime.frame)
            return None
        self.anchor = anchor
        self.frozen = runtime.frame
        self.started = now
        self.restored = False
        runtime.events.emit(
            "resync_begin",
            now,
            runtime.frame,
            anchor=anchor,
            frozen=self.frozen,
            authority=self.authority,
        )
        if self.authority != runtime.site_no:
            return self.request(now)
        if anchor not in self.retained:
            # Retention slipped (the anchor is at most RETAIN_WINDOWS
            # digest frames old): fail fast rather than hang the episode.
            runtime.events.emit("resync_no_snapshot", now, runtime.frame, anchor=anchor)
            return None
        self.restore(self._snapshot(runtime.site_no, anchor), now)
        self.consistency.resync_progress(now)
        return []

    def caught_up(self) -> bool:
        return self.runtime.frame >= self.frozen and self.digests.agreement_caught_up()

    def step(self, now: float, effects: list) -> bool:
        """One pump of the recover phase; True when the frame loop may run.

        Both waits restore the first accepted snapshot, which ends an
        acquire.  An episode then replays toward the frozen frame and
        closes (with a ``Resumed`` effect) once agreement is re-established
        past every divergence — checked *before* the restore, so a clean
        site whose peer diverged closes without restoring."""
        episode = self.anchor >= 0
        if not (episode and self.caught_up()):
            if not self.restored:
                snapshot = self.accept(now)
                if snapshot is None:
                    return False
                self.restore(snapshot, now)
            if not episode:
                return True
            self.consistency.resync_progress(now)
            if not self.caught_up():
                return False
        self.consistency.finish_resync(now)
        runtime = self.runtime
        took = now - self.started
        runtime.metrics.resync_seconds.inc(took)
        runtime.events.emit(
            "resync_done", now, runtime.frame, anchor=self.anchor, took=took
        )
        self.anchor = -1
        runtime.lockstep.forget_master_samples()
        effects.append(Resumed(runtime.frame, took))
        return True

    def retry(self, now: float) -> Tuple[Replies, float]:
        """Every digest not yet known-agreed (idempotent to fold twice; none
        before the loop has run), then the snapshot request if still owed."""
        out = self.digest_messages(unagreed=True)
        out.extend(self.request(now))
        return out, now + REQUEST_INTERVAL

    def give_up(self, now: float) -> str:
        """The server never answered: record why and name the ending."""
        runtime = self.runtime
        if self.anchor < 0:
            runtime.events.emit(
                "error",
                now,
                runtime.frame,
                error=f"no snapshot from donor {self.donor_site} "
                f"within {REQUEST_TIMEOUT}s",
            )
            return "acquire-timeout"
        runtime.events.emit(
            "resync_timeout",
            now,
            runtime.frame,
            anchor=self.anchor,
            waited=now - self.started,
            restored=self.restored,
        )
        return "desync"
