"""Unit tests for repro.core.lockstep — Algorithm 2 line by line."""

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.core.lockstep import MASTER_MEMORY, MAX_INPUTS_PER_MESSAGE, LockstepSync
from repro.core.messages import DecodeError, Sync
from repro.core.rtt import CLOCK_FILTER_DEPTH
from tests.wire import sync_of


def make_pair(buf_frame=6, num_sites=2, observers=0):
    config = SyncConfig(buf_frame=buf_frame)
    if observers:
        assignment = InputAssignment.with_observers(num_sites - observers, observers)
    else:
        assignment = InputAssignment.standard(num_sites)
    return [
        LockstepSync(config, site, assignment, session_id=1)
        for site in range(num_sites)
    ]


def pump(sender: LockstepSync, receiver: LockstepSync, now: float = 0.0) -> None:
    """Move one flush worth of messages from sender to receiver."""
    message = sender.build_sync_for(receiver.site_no, force=True)
    if message is not None:
        receiver.on_sync(message, arrived_at=now)


class TestLocalLagBuffering:
    """Algorithm 2, lines 1–5."""

    def test_input_lands_at_lagged_frame(self):
        a, _ = make_pair()
        a.buffer_local_input(0, 0x05)
        assert a.ibuf.get(6, 0) == 0x05
        assert a.last_rcv_frame[0] == 6

    def test_repeat_buffering_same_frame_ignored(self):
        a, _ = make_pair()
        a.buffer_local_input(0, 0x05)
        a.buffer_local_input(0, 0x07)  # line 2 guard: LastRcvFrame >= LagF
        assert a.ibuf.get(6, 0) == 0x05

    def test_foreign_bits_stripped(self):
        a, _ = make_pair()
        a.buffer_local_input(0, 0xFFFF)
        assert a.ibuf.get(6, 0) == 0x00FF  # only SET[0]

    def test_zero_buf_frame(self):
        a, _ = make_pair(buf_frame=0)
        a.buffer_local_input(0, 0x05)
        assert a.ibuf.get(0, 0) == 0x05

    def test_observer_buffers_nothing(self):
        sites = make_pair(num_sites=3, observers=1)
        observer = sites[2]
        assert observer.is_observer
        observer.buffer_local_input(0, 0xFF)
        assert len(observer.ibuf) == 0


class TestFirstFrames:
    """'For the first six frames, the exit condition is trivially satisfied
    and empty inputs are returned.'"""

    def test_first_buf_frames_deliver_empty(self):
        a, _ = make_pair()
        for frame in range(6):
            a.buffer_local_input(frame, 0xFF)
            assert a.can_deliver()
            assert a.deliver() == 0

    def test_frame_six_blocks_without_remote(self):
        a, _ = make_pair()
        for frame in range(6):
            a.buffer_local_input(frame, 0xFF)
            a.deliver()
        a.buffer_local_input(6, 0xFF)
        assert not a.can_deliver()
        assert a.waiting_on() == [1]

    def test_frame_six_unblocks_after_remote(self):
        a, b = make_pair()
        for frame in range(7):
            a.buffer_local_input(frame, 0x01)  # SET[0] bits
            b.buffer_local_input(frame, 0x0200)  # SET[1] bits
        for frame in range(6):
            a.deliver()
        pump(b, a)
        assert a.can_deliver()
        merged = a.deliver()
        assert merged == 0x0201  # both pads' frame-0 inputs (lagged to 6)


class TestMessageExchange:
    """Lines 7–19."""

    def test_build_sync_carries_unacked_window(self):
        a, b = make_pair()
        for frame in range(3):
            a.buffer_local_input(frame, frame + 1)
        message = a.build_sync_for(1)
        assert message.first_frame == 6
        assert message.inputs == [1, 2, 3]
        assert message.ack == a.last_rcv_frame[1]

    def test_no_news_returns_none(self):
        a, _ = make_pair()
        first = a.build_sync_for(1, force=True)
        assert first is not None
        assert a.build_sync_for(1) is None  # nothing changed since

    def test_force_always_sends(self):
        a, _ = make_pair()
        a.build_sync_for(1, force=True)
        assert a.build_sync_for(1, force=True) is not None

    def test_ack_advances_peer_window(self):
        a, b = make_pair()
        for frame in range(3):
            a.buffer_local_input(frame, 1)
            b.buffer_local_input(frame, 1)
        pump(a, b)
        assert b.last_rcv_frame[0] == 8
        pump(b, a)  # carries b's ack of a's inputs
        assert a.last_ack_frame[1] == 8
        # subsequent window starts after the ack
        message = a.build_sync_for(1, force=True)
        assert message.first_frame == 9

    def test_duplicate_inputs_counted_once(self):
        a, b = make_pair()
        a.buffer_local_input(0, 1)
        message = a.build_sync_for(1, force=True)
        b.on_sync(message, 0.0)
        b.on_sync(message, 0.1)  # duplicate datagram
        assert b.stats.duplicate_inputs_received >= 1
        assert b.ibuf.get(6, 0) == 1

    def test_gapped_window_does_not_advance_cursor(self):
        a, b = make_pair()
        # Hand-craft a window starting beyond contiguity.
        message = sync_of(0, 1, 5, 20, [1, 2])
        b.on_sync(message, 0.0)
        assert b.last_rcv_frame[0] == 5  # guard rejected the gap
        # Not buffered either: the window that closes the gap carries it.
        assert len(b.ibuf) == 0
        assert b.stats.out_of_window_inputs == 1

    def test_ack_past_our_inputs_refused(self):
        a, b = make_pair()
        b.buffer_local_input(0, 1)
        message = sync_of(0, 1, 7, 6, [1])
        with pytest.raises(DecodeError, match="past our last buffered frame 6"):
            b.on_sync(message, 0.0)
        # Refused whole: neither the window nor the ack was taken.
        assert (b.last_rcv_frame[0], b.last_ack_frame[0]) == (5, 5)
        assert b.stats.sync_messages_received == 0

    def test_unseated_site_takes_acks_of_a_history_it_lacks(self):
        """A joiner waiting for its snapshot is acked past its own inputs:
        peers admitted it with a virtual history."""
        a, b = make_pair()
        b.seated = False
        b.on_sync(Sync(0, 1, ack=120, first_frame=6), 0.0)
        assert b.last_ack_frame[0] == 120
        b.seed_from_snapshot(119)
        assert b.seated

    def test_conflicting_cell_refuses_the_whole_window(self):
        a, b = make_pair()
        a.buffer_local_input(0, 1)
        pump(a, b)
        with pytest.raises(DecodeError, match="conflicting input for frame 6"):
            b.on_sync(sync_of(0, 1, 5, 6, [3, 1]), 0.0)
        assert b.last_rcv_frame[0] == 6
        assert b.ibuf.get(7, 0) is None

    def test_window_past_the_bound_is_clipped(self):
        a, b = make_pair()
        b.on_sync(sync_of(0, 1, 5, 6, [1] * 500), 0.0)
        assert b.last_rcv_frame[0] == 5 + MAX_INPUTS_PER_MESSAGE
        assert len(b.ibuf) == MAX_INPUTS_PER_MESSAGE

    def test_wrong_session_ignored(self):
        a, b = make_pair()
        a.buffer_local_input(0, 1)
        message = a.build_sync_for(1, force=True)
        message.session_id = 999
        b.on_sync(message, 0.0)
        assert b.last_rcv_frame[0] == 5

    def test_message_from_self_ignored(self):
        a, _ = make_pair()
        message = sync_of(0, 1, 5, 6, [1])
        a.on_sync(message, 0.0)  # sender == own site
        assert a.stats.sync_messages_received == 0

    def test_out_of_range_sender_ignored(self):
        a, _ = make_pair()
        message = sync_of(9, 1, 5, 6, [1])
        a.on_sync(message, 0.0)
        assert a.stats.sync_messages_received == 0

    def test_received_message_marks_ack_dirty(self):
        a, b = make_pair()
        a.buffer_local_input(0, 1)
        pump(a, b)
        # b has no inputs of its own but must re-ack.
        reply = b.build_sync_for(0)
        assert reply is not None
        assert reply.ack == 6

    def test_max_inputs_per_message_caps_window(self):
        assignment = InputAssignment.standard(2)
        a = LockstepSync(SyncConfig(), 0, assignment, session_id=1)
        for frame in range(MAX_INPUTS_PER_MESSAGE + 5):
            a.buffer_local_input(frame, 1)
        message = a.build_sync_for(1)
        assert len(message.inputs) == MAX_INPUTS_PER_MESSAGE


class TestDelivery:
    """Lines 21–23."""

    def test_deliver_before_ready_raises(self):
        a, _ = make_pair(buf_frame=0)
        a.buffer_local_input(0, 1)
        with pytest.raises(RuntimeError):
            a.deliver()

    def test_lockstep_convergence_over_many_frames(self):
        a, b = make_pair()
        merged_a, merged_b = [], []
        for frame in range(50):
            a.buffer_local_input(frame, frame & 0xFF)
            b.buffer_local_input(frame, (frame * 3) & 0xFF)
            pump(a, b, now=frame / 60)
            pump(b, a, now=frame / 60)
            merged_a.append(a.deliver())
            merged_b.append(b.deliver())
        assert merged_a == merged_b

    def test_master_sample_tracked_on_slave(self):
        a, b = make_pair()
        a.buffer_local_input(0, 1)
        pump(a, b, now=0.123)
        assert b.master_sample == (6, 0.123)

    def test_master_has_no_master_sample(self):
        a, b = make_pair()
        b.buffer_local_input(0, 1)
        pump(b, a, now=0.5)
        assert a.master_sample is None


class TestMasterSampleWindow:
    """Algorithm 4 reads the least-delayed of the last 64 master samples —
    of the newest eight while the gate has lately blocked on the master."""

    @staticmethod
    def feed(a, b, delays, start=0):
        """One master frame per flush, arriving ``delays[i]`` after it began
        (and acknowledged, so the master's send window keeps moving)."""
        tpf = a.config.time_per_frame
        for index, delay in enumerate(delays, start):
            a.buffer_local_input(index, 1)
            pump(a, b, now=index * tpf + delay)
            pump(b, a)

    def test_least_delayed_sample_is_chosen_not_the_newest(self):
        a, b = make_pair()
        self.feed(a, b, [0.030, 0.012, 0.025, 0.019])
        tpf = a.config.time_per_frame
        assert b.master_sample == (1 + 6, 1 * tpf + 0.012)

    def assert_chosen_among_equal_delays(self, b, first, last, delay):
        """Of equal delays the origins differ only by float rounding, so
        just check the chosen sample is one of frames ``first..last``."""
        frame, arrived = b.master_sample
        assert first + 6 <= frame <= last + 6
        assert arrived == pytest.approx(
            (frame - 6) * b.config.time_per_frame + delay
        )

    def test_sixty_fifth_sample_evicts_the_first(self):
        a, b = make_pair()
        assert MASTER_MEMORY == 64
        self.feed(a, b, [0.001] + [0.020] * 63)
        assert b.master_sample == (6, 0.001)  # still the first, at depth 64
        self.feed(a, b, [0.020], start=64)
        self.assert_chosen_among_equal_delays(b, 1, 64, 0.020)
        assert len(b._master_window) == MASTER_MEMORY

    def test_a_block_on_the_master_keeps_the_newest_eight_and_repicks(self):
        a, b = make_pair()
        assert CLOCK_FILTER_DEPTH == 8
        self.feed(a, b, [0.001] + [0.020] * 20)
        assert b.master_sample == (6, 0.001)
        b.master_is_late()
        assert len(b._master_window) == CLOCK_FILTER_DEPTH
        self.assert_chosen_among_equal_delays(b, 13, 20, 0.020)
        # Short now: a ninth sample evicts the oldest of the eight.
        self.feed(a, b, [0.030], start=21)
        assert len(b._master_window) == CLOCK_FILTER_DEPTH

    def test_sixty_four_clean_samples_widen_the_window_again(self):
        a, b = make_pair()
        self.feed(a, b, [0.020] * 10)
        b.master_is_late()
        self.feed(a, b, [0.020] * (MASTER_MEMORY - 1), start=10)
        assert len(b._master_window) == CLOCK_FILTER_DEPTH
        self.feed(a, b, [0.020] * 2, start=10 + MASTER_MEMORY - 1)
        # The 64th clean sample ended the short memory; the 65th is kept.
        assert len(b._master_window) == CLOCK_FILTER_DEPTH + 1
        self.feed(a, b, [0.020] * MASTER_MEMORY, start=11 + MASTER_MEMORY)
        assert len(b._master_window) == MASTER_MEMORY

    def test_a_second_block_while_short_restarts_the_count(self):
        a, b = make_pair()
        b.master_is_late()
        self.feed(a, b, [0.020] * 40)
        b.master_is_late()
        self.feed(a, b, [0.020] * (MASTER_MEMORY - 1), start=40)
        assert len(b._master_window) == CLOCK_FILTER_DEPTH
        self.feed(a, b, [0.020] * 2, start=39 + MASTER_MEMORY)
        assert len(b._master_window) == CLOCK_FILTER_DEPTH + 1

    def test_forget_empties_the_window_long_or_short(self):
        for short in (False, True):
            a, b = make_pair()
            self.feed(a, b, [0.010] * 20)
            if short:
                b.master_is_late()
            b.forget_master_samples()
            assert b.master_sample is None and not b._master_window
            b.master_is_late()  # a block with nothing to re-pick from
            assert b.master_sample is None
            self.feed(a, b, [0.018], start=20)
            assert b.master_sample == (20 + 6, 20 * a.config.time_per_frame + 0.018)

    def test_duplicate_or_non_advancing_sync_adds_nothing(self):
        a, b = make_pair()
        self.feed(a, b, [0.010])
        pump(a, b, now=0.001)  # the same window again, "arriving" earlier
        pump(a, b, now=0.002)
        assert b.master_sample == (6, 0.010)
        assert len(b._master_window) == 1

    def test_window_is_empty_after_a_rebase(self):
        for rebase in (
            lambda site: site.seed_from_snapshot(40),
            lambda site: site.resume_from_snapshot(40),
            lambda site: site.forget_master_samples(),
        ):
            a, b = make_pair()
            self.feed(a, b, [0.010, 0.020, 0.015])
            rebase(b)
            assert b.master_sample is None and not b._master_window
        # The first sample after it is the sample again.
        self.feed(a, b, [0.018], start=3)
        assert b.master_sample == (3 + 6, 3 * a.config.time_per_frame + 0.018)

    def test_sample_is_stamped_with_the_lag_in_force(self):
        """A master input at lag 4 is master frame ``LastRcvFrame[0] - 4``;
        it is stored as Algorithm 4 line 6 (which subtracts the configured
        6) expects it, so samples from before and after a lag change agree
        on the master's frame-0 origin."""
        a, b = make_pair()
        self.feed(a, b, [0.010])
        a.set_local_lag(4)
        b.set_local_lag(4)
        # Lag shrank: frames 1-2 are dropped, frame 3 lands on slot 7.
        for frame in (1, 2):
            a.buffer_local_input(frame, 1)
        self.feed(a, b, [0.010], start=3)
        tpf = a.config.time_per_frame
        assert a.last_rcv_frame[0] == 7
        assert [sample for _, sample in b._master_window] == [
            (6, 0.010),
            (3 + 6, 3 * tpf + 0.010),
        ]
        origins = [origin for origin, _ in b._master_window]
        assert origins[0] == pytest.approx(origins[1])


class TestPruning:
    def test_prune_after_deliver_and_ack(self):
        a, b = make_pair()
        for frame in range(20):
            a.buffer_local_input(frame, 1)
            b.buffer_local_input(frame, 1)
            pump(a, b)
            pump(b, a)
            a.deliver()
            b.deliver()
        # acks flow with every pump; old frames must be gone.
        assert a.ibuf.floor > 0
        assert a.stats.pruned_frames > 0

    def test_unacked_frames_retained(self):
        a, b = make_pair()
        for frame in range(20):
            a.buffer_local_input(frame, 1)
        # b never acks; a must retain everything for retransmission.
        assert a.ibuf.floor == 0
        assert a.ibuf.get(6, 0) is not None


class TestAbsentAndLateJoin:
    def test_absent_site_not_gating(self):
        sites = make_pair(num_sites=3)
        a = sites[0]
        a.mark_absent(2)
        for frame in range(7):
            a.buffer_local_input(frame, 1)
        for __ in range(6):
            a.deliver()  # the trivial local-lag frames
        # Frame 6 needs site 1's input but NOT absent site 2's.
        assert a.waiting_on() == [1]

    def test_absent_site_skipped_in_build_all(self):
        sites = make_pair(num_sites=3)
        a = sites[0]
        a.mark_absent(2)
        a.buffer_local_input(0, 1)
        messages = a.build_all(force=True)
        assert set(messages) == {1}

    def test_cannot_mark_self_absent(self):
        a, _ = make_pair()
        with pytest.raises(ValueError):
            a.mark_absent(0)

    def test_admit_after_absent(self):
        sites = make_pair(num_sites=3)
        a = sites[0]
        a.mark_absent(2)
        a.admit_site(2, 50, ack_hint=43)
        assert not a.is_absent(2)
        assert a.gate_from[2] == 50
        assert a.last_ack_frame[2] == 43
        assert a.last_rcv_frame[2] == 49  # virtual history received

    def test_admit_below_pointer_raises(self):
        sites = make_pair(num_sites=3)
        a = sites[0]
        a.mark_absent(2)
        for frame in range(10):
            a.buffer_local_input(frame, 1)
        # deliver the first lag frames (pointer advances to 6)
        for __ in range(6):
            a.deliver()
        with pytest.raises(ValueError):
            a.admit_site(2, 3)

    def test_seed_from_snapshot_pointers(self):
        a, _ = make_pair()
        a.seed_from_snapshot(100)
        assert a.ibuf_pointer == 101
        assert a.last_rcv_frame[1] == 100
        assert a.last_rcv_frame[0] == 106  # virtual own history
        assert a.last_ack_frame[1] == 106

    def test_seed_with_backlog(self):
        a, _ = make_pair()
        a.seed_from_snapshot(100, backlog=[[0], [7, 8, 9]])
        assert a.last_rcv_frame[1] == 103
        assert a.ibuf.get(101, 1) == 7
        assert a.ibuf.get(103, 1) == 9

    def test_site_out_of_range_admit(self):
        a, _ = make_pair()
        with pytest.raises(ValueError):
            a.admit_site(7, 0)

    def test_resume_pins_peer_acks_at_snapshot(self):
        # Unlike a cold join, a resume must leave the returning site's
        # window snapshot+1..snapshot+buf UNACKED: the donor never received
        # those inputs, so they have to be re-sent.
        a, _ = make_pair(buf_frame=6)
        a.resume_from_snapshot(100)
        assert a.ibuf_pointer == 101
        assert a.last_rcv_frame[0] == 100  # own real history, no virtual pad
        assert a.last_rcv_frame[1] == 100
        assert a.last_ack_frame[1] == 100  # NOT 106 as in seed_from_snapshot

    def test_resume_replayed_window_is_retransmitted(self):
        a, _ = make_pair(buf_frame=6)
        a.resume_from_snapshot(100)
        # The caller replays the unacked own window from its deterministic
        # source; the first sync to the peer must carry exactly 101..106.
        for frame in range(95, 101):
            a.buffer_local_input(frame, 1)
        message = a.build_sync_for(1, force=True)
        assert message is not None
        assert message.first_frame == 101
        assert message.last_frame == 106

    def test_resume_with_backlog_seeds_peer_inputs(self):
        a, _ = make_pair()
        a.resume_from_snapshot(100, backlog=[[0], [7, 8, 9]])
        assert a.ibuf.get(101, 1) == 7
        assert a.ibuf.get(103, 1) == 9
        assert a.last_rcv_frame[1] == 103

    def test_resume_then_peer_sync_unblocks_delivery(self):
        a, b = make_pair(buf_frame=6)
        # b is the donor: it ran normally up to the snapshot window.
        for frame in range(110):
            b.buffer_local_input(frame, 1)
        a.resume_from_snapshot(100)
        for frame in range(95, 101):
            a.buffer_local_input(frame, 1)
        assert not a.can_deliver()
        pump(b, a)  # donor retransmits its unacked window
        assert a.can_deliver()
        merged = a.deliver()
        assert merged is not None
        assert a.ibuf_pointer == 102


class TestConstruction:
    def test_bad_site_number(self):
        config = SyncConfig()
        with pytest.raises(ValueError):
            LockstepSync(config, 5, InputAssignment.standard(2))


class TestCachedMaskAndPresentPeers:
    """The own-mask and the present-peer list are stored, not recomputed;
    they must follow ``mark_absent`` / ``admit_site`` exactly."""

    def test_observer_reads_stored_mask(self):
        sites = make_pair(num_sites=3, observers=1)
        player, observer = sites[0], sites[2]
        assert player._cell_mask == player.assignment.mask(0) != 0
        assert not player.is_observer
        assert observer._cell_mask == 0 and observer.is_observer
        # An observer sends pure acks, never gates itself, and prunes by
        # its own delivery pointer (nobody has to ack inputs it never has).
        message = observer.build_sync_for(0, force=True)
        assert message.input_count == 0
        for __ in range(6):
            observer.deliver()  # the trivial local-lag frames
        assert observer.waiting_on() == [0, 1]
        sites[0].buffer_local_input(0, 0x01)
        sites[1].buffer_local_input(0, 0x0100)
        pump(sites[0], observer)
        pump(sites[1], observer)
        assert observer.deliver() == 0x0101
        assert observer.ibuf.floor == 7

    def test_prune_holds_for_a_peer_admitted_late(self):
        a, b, c = make_pair(num_sites=3)
        a.mark_absent(2)
        for frame in range(12):
            a.buffer_local_input(frame, 0x01)
            b.buffer_local_input(frame, 0x0100)
        pump(b, a)
        for __ in range(12):
            a.deliver()
        pump(a, b)
        pump(b, a)  # b's ack for everything a sent
        # Absent site 2 holds nothing back: only b's ack and our pointer do.
        assert a.ibuf.floor == 12
        assert set(a.build_all(force=True)) == {1}

        a.admit_site(2, first_gating_frame=18, ack_hint=11)
        # Present again: it gets traffic, and pruning waits for *its* acks.
        assert set(a.build_all(force=True)) == {1, 2}
        for frame in range(12, 20):
            a.buffer_local_input(frame, 0x01)
            b.buffer_local_input(frame, 0x0100)
        pump(b, a)
        for __ in range(6):
            a.deliver()  # frames 12..17, before site 2 gates
        pump(a, b)
        pump(b, a)
        assert a.waiting_on() == [2]
        assert a.ibuf.floor == 12  # site 2 has acked nothing past its hint

        ack_all = Sync(
            sender_site=2,
            session_id=1,
            ack=a.last_rcv_frame[0],
            first_frame=18,
        )
        a.on_sync(ack_all, arrived_at=0.0)
        assert a.ibuf.floor == 18  # now only the delivery pointer holds it

        a.mark_absent(2)
        assert set(a.build_all(force=True)) == {1}

    def test_deliver_or_none_is_deliver_without_the_raise(self):
        a, b = make_pair()
        for frame in range(7):
            a.buffer_local_input(frame, 0x01)
        for __ in range(6):
            assert a.deliver(or_none=True) == 0  # the trivial local-lag frames
        assert a.deliver(or_none=True) is None  # frame 6 waits for site 1
        assert a.ibuf_pointer == 6 and a.stats.frames_delivered == 6
        with pytest.raises(RuntimeError, match=r"waiting on sites \[1\]"):
            a.deliver()
        for frame in range(7):
            b.buffer_local_input(frame, 0x0100)
        pump(b, a)
        assert a.deliver(or_none=True) == 0x0101
        assert a.ibuf_pointer == 7
