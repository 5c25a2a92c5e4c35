"""Unit tests for lockstep's per-peer messaging layer (build_all etc.)."""


from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.core.lockstep import LockstepSync
from tests.wire import sync_of


def make_sites(num_sites=3, buf_frame=6, observers=0):
    if observers:
        assignment = InputAssignment.with_observers(
            num_sites - observers, observers
        )
    else:
        assignment = InputAssignment.standard(num_sites)
    config = SyncConfig(buf_frame=buf_frame)
    return [
        LockstepSync(config, s, assignment, session_id=1)
        for s in range(num_sites)
    ]


class TestBuildAll:
    def test_one_message_per_peer(self):
        sites = make_sites()
        sites[0].buffer_local_input(0, 1)
        messages = sites[0].build_all(force=True)
        assert set(messages) == {1, 2}

    def test_windows_are_per_peer(self):
        """Peers with different ack states receive different windows."""
        sites = make_sites()
        a = sites[0]
        for frame in range(10):
            a.buffer_local_input(frame, 1)
        # Peer 1 acks through slot 10; peer 2 has acked nothing.
        from repro.core.messages import Sync

        ack_from_1 = Sync(1, 1, ack=10, first_frame=6)
        a.on_sync(ack_from_1, 0.0)
        messages = a.build_all(force=True)
        assert messages[1].first_frame == 11
        assert messages[2].first_frame == 6
        assert len(messages[2].inputs) > len(messages[1].inputs)

    def test_quiet_site_sends_nothing_without_force(self):
        sites = make_sites()
        a = sites[0]
        a.build_all(force=True)  # establish baselines
        assert a.build_all() == {}

    def test_new_input_triggers_send_to_all_peers(self):
        sites = make_sites()
        a = sites[0]
        a.build_all(force=True)
        a.buffer_local_input(0, 1)
        messages = a.build_all()
        assert set(messages) == {1, 2}

    def test_ack_only_reply_goes_to_the_sender(self):
        sites = make_sites()
        a, b = sites[0], sites[1]
        b.buffer_local_input(0, 0x0100)
        a.build_all(force=True)
        message = b.build_sync_for(0, force=True)
        a.on_sync(message, 0.0)
        replies = a.build_all()
        # a owes b a fresh ack; it owes site 2 nothing new.
        assert 1 in replies
        assert replies[1].ack == 6

    def test_observer_sends_pure_acks(self):
        sites = make_sites(num_sites=3, observers=1)
        observer = sites[2]
        messages = observer.build_all(force=True)
        assert set(messages) == {0, 1}
        assert all(m.inputs == [] for m in messages.values())

    def test_retransmission_repeats_unacked_window(self):
        sites = make_sites()
        a = sites[0]
        a.buffer_local_input(0, 1)
        first = a.build_sync_for(1, force=True)
        second = a.build_sync_for(1, force=True)
        assert first.first_frame == second.first_frame
        assert first.inputs == second.inputs
        assert a.stats.inputs_retransmitted >= len(second.inputs)


class TestStatsAccounting:
    def test_stats_dict_has_all_counters(self):
        stats = make_sites()[0].stats.as_dict()
        for key in (
            "local_inputs_buffered",
            "local_inputs_dropped",
            "lag_changes",
            "frames_delivered",
            "sync_messages_sent",
            "duplicate_inputs_received",
            "inputs_retransmitted",
            "pruned_frames",
        ):
            assert key in stats

    def test_messages_sent_counts_per_peer(self):
        sites = make_sites()
        a = sites[0]
        a.buffer_local_input(0, 1)
        a.build_all(force=True)
        assert a.stats.sync_messages_sent == 2  # one per peer


class TestThreeSiteDeliveryGating:
    def test_waits_for_all_players(self):
        sites = make_sites()
        a = sites[0]
        for frame in range(7):
            a.buffer_local_input(frame, 1)
        for __ in range(6):
            a.deliver()
        assert sorted(a.waiting_on()) == [1, 2]
        # Input from site 1 alone is not enough.
        a.on_sync(sync_of(1, 1, 5, 6, [0x0100]), 0.0)
        assert a.waiting_on() == [2]
        a.on_sync(sync_of(2, 1, 5, 6, [0x030000]), 0.0)
        assert a.can_deliver()
        assert a.deliver() == 0x030101

    def test_observer_never_gates(self):
        sites = make_sites(num_sites=3, observers=1)
        a = sites[0]
        for frame in range(7):
            a.buffer_local_input(frame, 1)
        for __ in range(6):
            a.deliver()
        assert a.waiting_on() == [1]  # only the other *player*
