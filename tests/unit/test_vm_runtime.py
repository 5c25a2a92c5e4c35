"""Unit tests for SiteRuntime and DistributedVM plumbing."""

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource, ScriptedSource
from repro.core.messages import (
    _REGISTRY,
    Batch,
    Hello,
    Ping,
    Pong,
    StartAck,
    StateRequest,
    StateSnapshot,
    Sync,
    decode,
    pack_batch,
)
from repro.core.session import config_digest, game_digest
from repro.core.rtt import to_micros
from repro.core.engine import SitePeer, SiteRuntime
from repro.emulator.machine import create_game
from tests.wire import sync_of


def make_runtime(site=0, num_sites=2, config=None, **kwargs):
    peers = [SitePeer(s, f"site{s}") for s in range(num_sites)]
    return SiteRuntime(
        config=config or SyncConfig.paper_defaults(),
        site_no=site,
        assignment=InputAssignment.standard(num_sites),
        machine=create_game("counter"),
        source=PadSource(RandomSource(1), player=site),
        peers=peers,
        game_id="counter",
        session_id=1,
        **kwargs,
    )


class TestHandleDatagram:
    def test_garbage_ignored(self):
        runtime = make_runtime()
        assert runtime.handle_datagram(b"\x00" * 30, 0.0, 0.0) == []
        assert runtime.handle_datagram(b"", 0.0, 0.0) == []

    def test_ping_answered_with_pong(self):
        runtime = make_runtime(site=0)
        ping = Ping(sender_site=1, session_id=1, seq=5, timestamp_us=to_micros(1.0))
        replies = runtime.handle_datagram(ping.encode(), 1.02, 1.02)
        assert len(replies) == 1
        pong, destination = replies[0]
        assert destination == "site1"
        assert isinstance(pong, Pong)
        # Replies stay as message objects; the engine's outbox encodes (and
        # possibly batches) them.  Round-trip one to prove it stays valid.
        assert decode(pong.encode()) == pong
        assert pong.seq == 5
        assert pong.echo_timestamp_us == ping.timestamp_us

    @pytest.mark.parametrize("build", [
        lambda digests: Hello(5, 1, *digests),
        lambda digests: StartAck(5, 1),
    ], ids=["hello", "start-ack"])
    def test_handshake_message_from_unknown_site_rejected(self, build):
        """A well-formed HELLO or START_ACK from a site outside the
        handshake is a traced ``session_reject``, not a crash, and leaves
        the handshake as it was."""
        runtime = make_runtime(site=0)
        session = runtime.session
        digests = (game_digest("counter"), config_digest(runtime.config))
        before = (dict(session._joined), dict(session._start_acked))
        assert runtime.handle_datagram(build(digests).encode(), 0.0, 0.0) == []
        assert (session._joined, session._start_acked) == before
        rejects = [r for r in runtime.events if r.kind == "session_reject"]
        assert [r.detail["peer"] for r in rejects] == [5]

    def test_ping_from_unknown_site_dropped(self):
        runtime = make_runtime()
        ping = Ping(sender_site=9, session_id=1, seq=0, timestamp_us=0)
        assert runtime.handle_datagram(ping.encode(), 0.0, 0.0) == []

    def test_pong_feeds_rtt(self):
        runtime = make_runtime()
        pong = Pong(sender_site=1, session_id=1, seq=0, echo_timestamp_us=to_micros(1.0))
        runtime.handle_datagram(pong.encode(), 1.05, 1.05)
        assert runtime.rtt.rtt == pytest.approx(0.05)

    def test_sync_message_feeds_lockstep(self):
        runtime = make_runtime(site=0)
        sync = sync_of(1, 1, 5, 6, [0x0100], mask=0xFF00)
        runtime.handle_datagram(sync.encode(), 0.5, 0.5)
        assert runtime.lockstep.last_rcv_frame[1] == 6

    def test_batch_with_a_retired_switch_request_is_refused_whole(self):
        """An older peer's BATCH of SYNC + SWITCH_REQUEST (type 13, now
        retired) leaves one ``decode_error`` record and no reply, and the
        SYNC it carried is not applied."""
        runtime = make_runtime(site=0)
        sync = sync_of(1, 1, 5, 6, [0x0100], mask=0xFF00)
        switch_request = bytes.fromhex("0300f403")  # seq 3, lockstep, frame 250
        raw = pack_batch(
            1, 1, [(Sync.TYPE_ID, sync._encode_body()), (13, switch_request)]
        )
        before = runtime.lockstep.last_rcv_frame[1]
        assert runtime.handle_datagram(raw, 0.5, 0.5) == []
        assert runtime.lockstep.last_rcv_frame[1] == before < 6
        errors = [r.detail["error"] for r in runtime.events if r.kind == "decode_error"]
        assert errors == ["unknown message type 13 in BATCH"]

    def test_state_request_gated_by_flag(self):
        runtime = make_runtime(site=0)
        runtime.lockstep.mark_absent(1)  # a joiner not yet admitted
        recovery = runtime.recovery
        request = StateRequest(sender_site=1, session_id=1)
        runtime.handle_datagram(request.encode(), 0.0, 0.0)
        assert recovery.requests == {}
        recovery.donor = True
        runtime.handle_datagram(request.encode(), 0.0, 0.0)
        assert recovery.requests == {"join": (1, None)}
        assert recovery.serve(0.0) == []  # joins wait for a committed frame
        runtime.frame = 10  # past every buffered input: an empty backlog
        served = recovery.serve(0.0, joins=True)
        assert [(type(m), dest) for m, dest in served] == [(StateSnapshot, "site1")]
        assert recovery.requests == {}  # consumed

    def test_snapshot_keeps_highest_frame(self):
        runtime = make_runtime(site=1)
        low = StateSnapshot(0, 1, frame=10, state=b"a")
        high = StateSnapshot(0, 1, frame=20, state=b"b")
        runtime.handle_datagram(high.encode(), 0.0, 0.0)
        runtime.handle_datagram(low.encode(), 0.0, 0.0)
        assert runtime.recovery.snapshot.frame == 20


class TestDispatchTable:
    def test_every_decodable_type_has_exactly_one_handler(self):
        """A new message type cannot be dropped silently: the codec's
        registry (BATCH is flattened before dispatch) and the table hold
        the same types, and no two owners register one type."""
        runtime = make_runtime()
        decodable = {klass for klass in _REGISTRY.values() if klass is not Batch}
        assert set(runtime.handlers) == decodable
        recovery_rows = runtime.recovery.handlers()
        session_rows = set(runtime.session.MESSAGES)
        assert not session_rows & set(recovery_rows)
        for klass, handler in recovery_rows.items():
            assert runtime.handlers[klass] == handler
        runtime_rows = decodable - session_rows - set(recovery_rows)
        for klass in runtime_rows:
            assert runtime.handlers[klass].__self__ is runtime


class TestOutboundHelpers:
    def test_sync_broadcast_addresses_peers(self):
        runtime = make_runtime(site=0, num_sites=3)
        runtime.get_and_buffer_input()
        batch = runtime.sync_broadcast(0.0, force=True)
        destinations = sorted(dest for __, dest in batch)
        assert destinations == ["site1", "site2"]

    def test_ping_messages_one_per_peer(self):
        runtime = make_runtime(site=0, num_sites=3)
        pings = runtime.ping_messages(1.0)
        assert len(pings) == 2

    def test_all_inputs_acked_initially_true(self):
        runtime = make_runtime()
        assert runtime.all_inputs_acked()
        runtime.get_and_buffer_input()
        assert not runtime.all_inputs_acked()


class TestFrameSteps:
    def test_begin_frame_records_trace(self):
        runtime = make_runtime()
        runtime.begin_frame(1.5)
        assert runtime.trace.begin_times == [1.5]

    def test_run_transition_advances_everything(self):
        runtime = make_runtime()
        checksum_before = runtime.machine.checksum()
        runtime.run_transition(0x0101, stall=0.001, sync_adjust=0.0)
        assert runtime.frame == 1
        assert runtime.machine.frame == 1
        assert runtime.trace.inputs == [0x0101]
        assert runtime.trace.checksums[0] != checksum_before
        assert runtime.trace.lags == [6]

    def test_scripted_source_flows_into_lockstep(self):
        runtime = make_runtime()
        runtime.source = PadSource(ScriptedSource({0: 0x3}), player=0)
        runtime.get_and_buffer_input()
        assert runtime.lockstep.ibuf.get(6, 0) == 0x3
