"""Desync-recovery bookkeeping: digest tracking, the episode ladder, and
the recovery-extension codecs (ISSUE-10).

The protocol-level behaviour (freeze, snapshot transfer, replay, terminal
escalation) is exercised end-to-end in
``tests/integration/test_desync_recovery.py``; these tests pin the pure
bookkeeping underneath it.
"""

import zlib

import pytest

from repro.core.messages import Resume, StateDigest, StateSnapshot, decode
from repro.core.resync import DigestTracker, ResyncLadder


def roundtrip(message):
    return decode(message.encode())


class TestRecoveryCodecs:
    def test_state_digest_roundtrip(self):
        msg = roundtrip(StateDigest(1, 7, frame=119, checksum=0xDEADBEEF))
        assert msg.sender_site == 1
        assert msg.frame == 119
        assert msg.checksum == 0xDEADBEEF

    def test_resume_resync_frame_roundtrip(self):
        msg = roundtrip(Resume(1, 7, last_acked_frame=120, resync_frame=109))
        assert msg.resync_frame == 109
        assert msg.last_acked_frame == 120

    def test_plain_resume_has_no_resync_frame(self):
        # The extension is strictly trailing: old resumes decode unchanged.
        assert roundtrip(Resume(1, 7, last_acked_frame=120)).resync_frame is None

    def test_snapshot_crc_roundtrip_and_verification(self):
        state = b"\x01\x02\x03\x04"
        msg = roundtrip(
            StateSnapshot(0, 7, frame=9, state=state, state_crc=zlib.crc32(state))
        )
        assert msg.crc_ok()

    def test_snapshot_crc_detects_flipped_state_bit(self):
        state = bytearray(b"\x01\x02\x03\x04")
        good = StateSnapshot(
            0, 7, frame=9, state=bytes(state), state_crc=zlib.crc32(bytes(state))
        )
        state[2] ^= 0x10
        bad = StateSnapshot(0, 7, frame=9, state=bytes(state), state_crc=good.state_crc)
        assert good.crc_ok() and not roundtrip(bad).crc_ok()

    def test_snapshot_without_crc_is_trusted(self):
        # Pre-digest senders omit the trailer; crc_ok degrades to True so
        # the feature-gated paths interoperate.
        assert StateSnapshot(0, 7, frame=9, state=b"s").crc_ok()


class TestDigestTracker:
    def tracker(self, site=0, interval=10):
        return DigestTracker(site, interval)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            DigestTracker(0, 0)

    def test_digest_frames_are_interval_aligned(self):
        t = self.tracker(interval=10)
        assert t.is_digest_frame(9) and t.is_digest_frame(19)
        assert not t.is_digest_frame(10)

    def test_matching_digests_advance_agreement(self):
        t = self.tracker()
        t.record_own(9, 111)
        assert t.on_peer_digest(1, 9, 111) is None
        assert t.last_agreed == 9
        assert t.agreement_caught_up()
        assert t.retain_floor() == 10

    def test_mismatch_is_a_proven_divergence(self):
        t = self.tracker()
        t.record_own(9, 111)
        t.on_peer_digest(1, 9, 111)
        t.record_own(19, 222)
        divergence = t.on_peer_digest(1, 19, 999)
        assert divergence is not None
        assert divergence.frame == 19 and divergence.agreed == 9
        assert t.max_divergent == 19
        assert not t.agreement_caught_up()

    def test_peer_ahead_settles_when_own_frame_arrives(self):
        t = self.tracker()
        assert t.on_peer_digest(1, 9, 111) is None  # stashed, not settled
        assert t.last_agreed == -1
        assert t.record_own(9, 111) == []
        assert t.last_agreed == 9

    def test_record_own_surfaces_stashed_mismatch(self):
        t = self.tracker()
        t.on_peer_digest(1, 9, 999)
        found = t.record_own(9, 111)
        assert len(found) == 1 and found[0].frame == 9

    def test_stale_peer_digest_is_ignored(self):
        t = self.tracker()
        t.record_own(9, 111)
        t.on_peer_digest(1, 9, 111)
        # A duplicate (or a re-send racing the agreement) must not re-prove.
        assert t.on_peer_digest(1, 9, 999) is None

    def test_divergent_copy_kept_for_post_restore_resettle(self):
        # The deadlock regression: the authority restores and replays while
        # the divergent peer's poisoned digest is the only copy it holds.
        # The kept copy lets the *peer's* clean re-send overwrite it; an
        # agreeing settle then drains the stash.
        t = self.tracker()
        t.record_own(9, 111)
        t.on_peer_digest(1, 9, 111)
        t.record_own(19, 222)
        assert t.on_peer_digest(1, 19, 999) is not None
        assert t.pending[1] == {19: 999}  # poisoned copy retained
        # Peer restores, replays, re-sends its clean digest for frame 19.
        assert t.on_peer_digest(1, 19, 222) is None
        assert t.last_agreed == 19
        assert t.pending[1] == {}  # agreement drained the stash

    def test_own_resettle_after_rewind_against_kept_copy(self):
        # The divergent site's half: rewind keeps the peer's (clean) stash
        # so the replay's re-recorded digests re-establish agreement
        # without any new traffic from the peer.
        t = self.tracker()
        t.record_own(9, 111)
        t.on_peer_digest(1, 9, 111)
        t.record_own(19, 666)  # corrupted state digested here
        assert t.on_peer_digest(1, 19, 222) is not None
        t.rewind(9)
        assert 19 not in t.own
        assert t.pending[1] == {19: 222}
        assert t.record_own(19, 222) == []  # replay re-records, now clean
        assert t.last_agreed == 19 and t.agreement_caught_up()

    def test_agreeing_settle_tolerates_drop_stale_race(self):
        # Settling an agreement prunes the stash via _drop_stale before
        # record_own's own cleanup runs; this must not raise (regression:
        # KeyError mid-replay killed the site process).
        t = self.tracker()
        t.on_peer_digest(1, 9, 111)
        assert t.record_own(9, 111) == []
        assert t.pending[1] == {}

    def test_own_history_and_outbox_are_bounded(self):
        t = self.tracker()
        horizon = DigestTracker.RETAIN_WINDOWS
        for window in range(3 * horizon):
            t.record_own(window * 10 + 9, window)
        assert len(t.own) == horizon
        assert len(t.outbox) == horizon  # send outage cannot grow it

    def test_peer_stash_is_bounded(self):
        t = self.tracker()
        cap = 2 * DigestTracker.RETAIN_WINDOWS
        for window in range(3 * cap):
            t.on_peer_digest(1, window * 10 + 9, window)
        assert len(t.pending[1]) == cap
        # Oldest entries were evicted first.
        assert min(t.pending[1]) == (3 * cap - cap) * 10 + 9

    def test_drain_outbox_drains_once(self):
        t = self.tracker()
        t.record_own(9, 111)
        assert t.drain_outbox() == [(9, 111)]
        assert t.drain_outbox() == []

    def test_unagreed_is_the_retransmission_set(self):
        t = self.tracker()
        t.record_own(9, 111)
        t.on_peer_digest(1, 9, 111)
        t.record_own(19, 222)
        t.record_own(29, 333)
        assert t.unagreed() == [(19, 222), (29, 333)]

    def test_rewind_drops_own_and_outbox_past_anchor(self):
        t = self.tracker()
        for frame, checksum in ((9, 1), (19, 2), (29, 3)):
            t.record_own(frame, checksum)
        t.rewind(9)
        assert list(t.own) == [9]
        assert t.outbox == [(9, 1)]


class TestResyncLadder:
    def test_episodes_within_budget_pass(self):
        ladder = ResyncLadder()
        assert ladder.begin_episode(0.0)
        assert ladder.begin_episode(1.0)
        assert ladder.begin_episode(2.0)

    def test_one_past_budget_trips_quarantine(self):
        ladder = ResyncLadder()
        for when in (0.0, 1.0, 2.0):
            assert ladder.begin_episode(when)
        assert not ladder.begin_episode(3.0)

    def test_window_slides(self):
        ladder = ResyncLadder()
        for when in (0.0, 1.0, 2.0):
            assert ladder.begin_episode(when)
        # The episode at 0.0 has aged out of the 60 s window: three remain.
        assert ladder.begin_episode(60.5)
        # 1.0 and 2.0 are still inside it: a fourth trips the quarantine.
        assert not ladder.begin_episode(60.6)
