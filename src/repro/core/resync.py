"""Live divergence detection and the desync-recovery bookkeeping.

The sync layer's correctness story used to end at post-session
verification: every site records per-frame checksums and
``verify_with_postmortem`` compares them after the fact.  This module is
the *live* half: under FEATURE_DIGEST each site piggybacks a periodic
:class:`~repro.core.messages.StateDigest` (frame, state checksum) on its
sync flushes, and :class:`DigestTracker` folds its own and its peers'
digests together so that

* **agreement** advances ``last_agreed`` — the newest frame at which this
  site and every live peer provably held bit-identical state (the anchor
  every recovery restores to), and
* **disagreement** at any digest frame surfaces a :class:`Divergence`
  within one digest window of the fault, instead of at session end.

The tracker is pure bookkeeping (no I/O, no machine access) so both the
lockstep and rollback cores can drive it: lockstep records digests as
frames commit, rollback as *shadow* (confirmed) frames execute —
speculative frames never produce digests, so a mispredict rollback is
invisible here.

The recovery built on top — detect → freeze → authority snapshot at
``last_agreed`` → restore → replay → rejoin, with the flap quarantine of
:class:`ResyncLadder` — is :class:`repro.core.recovery.Recovery`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Flap quarantine: more than this many resync episodes starting within
#: ``RESYNC_WINDOW_S`` escalate to terminal ``desync`` — a
#: deterministically-broken game must not resync forever.
RESYNC_MAX_ATTEMPTS = 3

#: Sliding window for :data:`RESYNC_MAX_ATTEMPTS`, in seconds.
RESYNC_WINDOW_S = 60.0


@dataclass(frozen=True)
class Divergence:
    """A proven state divergence at a digest frame.

    ``agreed`` is the newest frame both sides matched at — the recovery
    anchor; ``-1`` means no digest ever agreed (divergence from frame 0).
    """

    peer: int
    frame: int
    agreed: int
    own_checksum: int
    peer_checksum: int

    def describe(self) -> str:
        return (
            f"digest mismatch with site {self.peer} at frame {self.frame}: "
            f"own 0x{self.own_checksum:08x} != peer 0x{self.peer_checksum:08x} "
            f"(last agreed frame {self.agreed})"
        )


class DigestTracker:
    """Folds own and peer state digests into agreement/divergence facts.

    One instance per site.  ``interval`` is the negotiated digest period:
    digest frames are those with ``frame % interval == interval - 1``, so
    every site samples the same frames regardless of when it joined.
    """

    #: How many digest windows of own history (checksums and retained
    #: savestates) to keep.  Covers the peer's comparison lag (RTT plus a
    #: flush period) with generous slack; the resync request's anchor
    #: frame must still be retained by the authority when it arrives.
    RETAIN_WINDOWS = 4

    def __init__(self, site_no: int, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"digest interval must be >= 1, got {interval}")
        self.site_no = site_no
        self.interval = interval
        #: Own digest frames → checksum, oldest first.
        self.own: "OrderedDict[int, int]" = OrderedDict()
        #: Peer digests that arrived before we executed their frame.
        self.pending: Dict[int, Dict[int, int]] = {}
        #: Newest frame at which we and a peer provably matched.
        self.last_agreed: int = -1
        #: Highest digest frame any mismatch has been observed at — the
        #: engine's resync exit threshold (agreement must reach it again).
        self.max_divergent: int = -1
        #: Digests queued for the next sync flush (drained by the engine).
        self.outbox: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    def is_digest_frame(self, frame: int) -> bool:
        return frame % self.interval == self.interval - 1

    def record_own(self, frame: int, checksum: int) -> List[Divergence]:
        """Record this site's checksum at a digest frame.

        Queues the digest for the next flush and settles any peer digests
        that were stashed waiting for this frame; returns the divergences
        those comparisons prove (usually empty).
        """
        self.own[frame] = checksum
        self.outbox.append((frame, checksum))
        # Bound the retained history (and the outbox, under send outage).
        horizon = self.RETAIN_WINDOWS
        while len(self.own) > horizon:
            self.own.popitem(last=False)
        if len(self.outbox) > horizon:
            del self.outbox[: len(self.outbox) - horizon]
        found: List[Divergence] = []
        for peer, stash in self.pending.items():
            peer_sum = stash.get(frame)
            if peer_sum is None:
                continue
            divergence = self._settle(peer, frame, checksum, peer_sum)
            if divergence is None:
                # Agreed: the stashed copy has served its purpose (settling
                # already dropped it via ``_drop_stale``).  A *divergent*
                # copy stays — after a resync restore this frame's own
                # digest is re-recorded, and re-settling against the kept
                # copy is what re-establishes agreement without waiting for
                # the peer to re-send (the peer may already have finished
                # its half of the episode).
                stash.pop(frame, None)
            else:
                found.append(divergence)
        return found

    def on_peer_digest(
        self, peer: int, frame: int, checksum: int
    ) -> Optional[Divergence]:
        """Fold one received peer digest; returns a proven divergence."""
        if frame <= self.last_agreed:
            return None  # stale (already agreed past it, or a duplicate)
        own = self.own.get(frame)
        if own is None:
            if frame > self._newest_own():
                # Peer is ahead of our execution; settle when we get there.
                self._stash(peer, frame, checksum)
            return None
        divergence = self._settle(peer, frame, own, checksum)
        if divergence is not None:
            # Keep the copy for post-restore re-settling (see record_own).
            self._stash(peer, frame, checksum)
        return divergence

    def _stash(self, peer: int, frame: int, checksum: int) -> None:
        stash = self.pending.setdefault(peer, {})
        stash[frame] = checksum
        if len(stash) > 2 * self.RETAIN_WINDOWS:
            del stash[min(stash)]

    def _settle(
        self, peer: int, frame: int, own: int, theirs: int
    ) -> Optional[Divergence]:
        if own == theirs:
            if frame > self.last_agreed:
                self.last_agreed = frame
                self._drop_stale()
            return None
        if frame > self.max_divergent:
            self.max_divergent = frame
        return Divergence(peer, frame, self.last_agreed, own, theirs)

    # ------------------------------------------------------------------
    def rewind(self, frame: int) -> None:
        """Forget own history past ``frame`` (a resync restore landed there).

        Own digests beyond the anchor were computed from divergent state
        and are about to be re-recorded by the replay.  Peer stashes are
        deliberately *kept*: a clean peer's digests stay valid across our
        rewind (the replay re-settles against them, which is what lets the
        authority observe re-agreement without waiting for the peer to
        re-send), and a divergent peer's stale entries are overwritten by
        its post-restore retransmissions before we reach those frames.
        """
        for key in [f for f in self.own if f > frame]:
            del self.own[key]
        self.outbox = [(f, c) for f, c in self.outbox if f <= frame]

    def drain_outbox(self) -> List[Tuple[int, int]]:
        """Digests to put on the wire this flush (oldest first)."""
        out, self.outbox = self.outbox, []
        return out

    def unagreed(self) -> List[Tuple[int, int]]:
        """Own digests not yet known-agreed, oldest first.

        The resync retransmission set: digests are fire-and-forget in the
        steady state (a lost one just delays agreement by a window), but
        while an episode is open both sides re-send these until agreement
        reaches ``max_divergent`` — folding a digest twice is idempotent.
        """
        return [(f, c) for f, c in self.own.items() if f > self.last_agreed]

    def agreement_caught_up(self) -> bool:
        """Whether agreement has been re-established past every known
        divergence — the authority's condition for thawing its frame loop."""
        return self.last_agreed >= self.max_divergent

    # ------------------------------------------------------------------
    def retain_floor(self) -> int:
        """Oldest frame whose inputs the lockstep core must retain.

        A resync restores at ``last_agreed`` and re-executes everything
        after it from locally-buffered inputs, so the prune floor must
        never pass ``last_agreed + 1``.  Bounded: agreement advances every
        digest window, so the extra retention is O(interval) frames.
        """
        return self.last_agreed + 1

    def _newest_own(self) -> int:
        return next(reversed(self.own)) if self.own else -1

    def _drop_stale(self) -> None:
        for stash in self.pending.values():
            for key in [f for f in stash if f <= self.last_agreed]:
                del stash[key]


class ResyncLadder:
    """Episode budget: deadline per episode, quarantine across episodes.

    A deterministically-broken game (or a corrupted authority) would
    otherwise detect → resync → re-diverge forever.  The ladder records
    episode start times in a sliding window; one more episode than
    ``RESYNC_MAX_ATTEMPTS`` inside ``RESYNC_WINDOW_S`` escalates to terminal
    ``desync``.
    """

    def __init__(self) -> None:
        self.episodes: List[float] = []

    def begin_episode(self, now: float) -> bool:
        """Record an episode start; False means the quarantine tripped."""
        cutoff = now - RESYNC_WINDOW_S
        self.episodes = [t for t in self.episodes if t > cutoff]
        self.episodes.append(now)
        return len(self.episodes) <= RESYNC_MAX_ATTEMPTS
