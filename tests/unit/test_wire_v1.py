"""Legacy wire versions against the live codec.

The fixed-width v1 codec and the v2 and v3 codecs are gone.  What is
left of them is datagrams captured from each, one per message type, and
the header check a v1 site runs before it reads a body.  These tests pin
three contracts:

* v1, v2 and v3 bytes arriving at a live site always raise
  :class:`DecodeError` with an error naming the version, and a v1 HELLO
  is reported as a legacy peer (the HELLO-time rejection path),
* live bytes are equally unreadable to a v1 site,
* the size claims made against v1 hold against its captured sizes.

The test names date from when the live codec was v2: in them, "v2
decoder" and "v2 bytes" mean the live codec.
"""

import pytest

from repro.core.messages import (
    Bye,
    DecodeError,
    Hello,
    Ping,
    Pong,
    Resume,
    Start,
    StartAck,
    StateRequest,
    StateSnapshot,
    Sync,
    Welcome,
    decode,
)
from tests.wire import sync_of

#: One representative instance of every wire message type (Sync0 carries
#: inputs, Sync1 is a pure ack).
SAMPLES = {
    "Hello": Hello(1, 7, game_id=0xDEADBEEF, config_digest=0x12345678),
    "Welcome": Welcome(0, 7, assigned_site=1, num_sites=4),
    "Start": Start(0, 7),
    "StartAck": StartAck(1, 7),
    "Sync0": sync_of(1, 7, 120, 119, [0, 3, 0xFFFF]),
    "Sync1": Sync(1, 7, ack=120, first_frame=121),
    "Ping": Ping(1, 7, seq=42, timestamp_us=1_234_567),
    "Pong": Pong(0, 7, seq=42, echo_timestamp_us=1_234_567),
    "StateRequest": StateRequest(2, 7),
    "StateSnapshot": StateSnapshot(
        0, 7, frame=300, state=b"\x00\x01machine", backlog=[[1, 2], []]
    ),
    "Bye": Bye(1, 7),
    "Resume": Resume(1, 7, last_acked_frame=250),
}

#: ``SAMPLES`` as the codecs that spoke wire versions 1, 2 and 3 encoded
#: them, ``(v1 hex, v2 hex, v3 hex)``.  Those codecs sent an ack vector,
#: ``[120, 118]`` in both SYNCs; the live codec sends the receiver's
#: entry alone.
LEGACY_BYTES = {
    "Hello": (
        "52470101000100000007deadbeef12345678",
        "5247210107effdb6f50df8acd19101",
        "5247310107effdb6f50df8acd19101",
    ),
    "Welcome": (
        "524701020000000000070000000100000004",
        "52472200070208",
        "52473200070208",
    ),
    "Start": (
        "52470103000000000007",
        "5247230007",
        "5247330007",
    ),
    "StartAck": (
        "52470104000100000007",
        "5247240107",
        "5247340107",
    ),
    "Sync0": (
        "5247010500010000000700000002000000780000007600000077000000030000000000"
        "0000030000ffff",
        "5247250107ee0102020103ffff0300000300ffff",
        "5247350107ee0102020103ffff030300000300ffff",
    ),
    "Sync1": (
        "524701050001000000070000000200000078000000760000007900000000",
        "5247250107f201020105",
        "5247350107f201020105",
    ),
    "Ping": (
        "524701060001000000070000002a000000000012d687",
        "52472601072a8eda9601",
        "52473601072a8eda9601",
    ),
    "Pong": (
        "524701070000000000070000002a000000000012d687",
        "52472700072a8eda9601",
        "52473700072a8eda9601",
    ),
    "StateRequest": (
        "52470108000200000007",
        "5247280207",
        "5247380207",
    ),
    "StateSnapshot": (
        "524701090000000000070000012c0000000900016d616368696e650000000200000002"
        "000000010000000200000000",
        "5247290007d8040900016d616368696e650202010200",
        "5247390007d8040900016d616368696e650202010200",
    ),
    "Bye": (
        "5247010a000100000007",
        "52472a0107",
        "52473a0107",
    ),
    "Resume": (
        "5247010b000100000007000000fa",
        "52472b0107f403",
        "52473b0107f403",
    ),
}

#: v1 encodings of the two SYNCs the size claims are made on.
SYNC_8_FRAMES_V1 = (
    "5247010500000000000100000002000000640000005f0000006000000008000000010000"
    "0000000000030000000200000001000000000000000100000003"
)
PURE_ACK_V1 = "5247010500000000000100000002000000640000005f0000006500000000"


def v1_site_accepts(raw):
    """The header check of a v1 site: a 10-byte ``>HBBHI`` header with
    magic 0x5247 and version byte 1."""
    return len(raw) >= 10 and raw[:3] == b"RG\x01"


class TestVersionRejection:
    @pytest.mark.parametrize("name", list(LEGACY_BYTES))
    def test_v1_bytes_rejected_by_v2_decoder(self, name):
        with pytest.raises(DecodeError, match="version 1 "):
            decode(bytes.fromhex(LEGACY_BYTES[name][0]))

    @pytest.mark.parametrize("name", list(LEGACY_BYTES))
    def test_v2_bytes_rejected_by_v1_decoder(self, name):
        assert v1_site_accepts(bytes.fromhex(LEGACY_BYTES[name][0]))
        assert not v1_site_accepts(SAMPLES[name].encode())

    @pytest.mark.parametrize("name", list(LEGACY_BYTES))
    def test_captured_v2_bytes_rejected(self, name):
        with pytest.raises(DecodeError, match="version 2 "):
            decode(bytes.fromhex(LEGACY_BYTES[name][1]))

    @pytest.mark.parametrize("name", list(LEGACY_BYTES))
    def test_captured_v3_bytes_rejected(self, name):
        with pytest.raises(DecodeError, match="unsupported wire version 3 "):
            decode(bytes.fromhex(LEGACY_BYTES[name][2]))

    def test_v1_rejection_is_an_error_not_a_misparse(self):
        """A legacy HELLO must never decode into *some* live message."""
        with pytest.raises(DecodeError, match="legacy"):
            decode(bytes.fromhex(LEGACY_BYTES["Hello"][0]))


class TestSizeComparison:
    def test_v2_sync_is_under_half_the_v1_size(self):
        """The headline claim: an 8-frame two-site SYNC shrinks >2x."""
        message = sync_of(0, 1, 95, 96, [1, 0, 3, 2, 1, 0, 1, 3])
        v1_size = len(bytes.fromhex(SYNC_8_FRAMES_V1))
        assert v1_size == 62  # the legacy layout, pinned
        assert len(message.encode()) < v1_size / 2

    def test_pure_ack_sync_is_tiny(self):
        message = Sync(0, 1, ack=95, first_frame=101)
        assert len(message.encode()) <= 10
        assert len(bytes.fromhex(PURE_ACK_V1)) == 30
