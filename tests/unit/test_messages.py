"""Unit tests for repro.core.messages (wire format)."""

import pytest

from repro.core.messages import (
    FEATURE_DIGEST,
    FEATURE_TIMELINE,
    Batch,
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
    decode_all,
)


def roundtrip(message):
    decoded = decode(message.encode())
    assert type(decoded) is type(message)
    return decoded


def _implied_sync(packed, count, mask):
    return Sync.from_packed(1, 7, 120, 116, packed, count, mask)


def _stamped_sync():
    message = _implied_sync(bytes([1, 1, 3, 3, 3, 0]), 6, 0xFF)
    message.annotate(93_750, 120)
    return message


#: Frozen v4 datagrams, one per layout the SYNC decoder tells apart plus
#: HELLO and BATCH: ``(build, hex bytes, mask the receiver resolves an
#: implied-mask SYNC with)``.  docs/wire-format.md §4 walks through the
#: first one and the escaped count byte by byte.
WIRE_FIXTURES = [
    pytest.param(
        lambda: _implied_sync(bytes([1, 1, 3, 3, 3, 0]), 6, 0xFF),
        "5247450107e801860812010300",
        0xFF,
        id="sync-implied-mask",
    ),
    pytest.param(
        lambda: Sync(1, 7, 10, 6, [0, 5, 5, 4]),
        "52474501070c04080505000302",
        None,
        id="sync-explicit-mask",
    ),
    pytest.param(
        _stamped_sync, "5247450107e801c608b6dc057812010300", 0xFF, id="sync-stamped"
    ),
    pytest.param(
        lambda: Sync(0, 7, 5, 6), "52474500070c0001", None, id="sync-pure-ack"
    ),
    pytest.param(
        lambda: Sync.from_packed(1, 7, 180, 116, bytes([1] * 32 + [2] * 32), 64, 0xFF),
        "5247450107e801bf40800100000080000000000102",
        0xFF,
        id="sync-escaped-count",
    ),
    pytest.param(
        lambda: Sync(1, 7, 3, 4, [0, 0, 0]),
        "52474501070803010000",
        None,
        id="sync-width-0",
    ),
    pytest.param(
        lambda: _implied_sync(b"\x02\x01\x02\x01\xff\xff", 3, 0xFFFF),
        "5247450107e8018308020201ffff",
        0xFFFF,
        id="sync-width-2",
    ),
    pytest.param(
        lambda: Hello(1, 7, 0xDEADBEEF, 0x12345678, FEATURE_TIMELINE | FEATURE_DIGEST),
        "5247410107effdb6f50df8acd1910103",
        None,
        id="hello",
    ),
    pytest.param(
        lambda: Batch(
            0,
            7,
            [Sync(0, 7, 8, 9, [1] * 9 + [2]), Ping(0, 7, 42, 1_234_567)],
        ),
        "52474c0007020508120a01030001010206052a8eda9601",
        None,
        id="batch",
    ),
]


class TestFrozenV3Bytes:
    """The live codec's frozen bytes.  The class name dates from wire v3;
    the fixtures are v4, and captured v3 bytes are refused in
    ``test_wire_v1.py``."""

    @pytest.mark.parametrize("build, fixture, mask", WIRE_FIXTURES)
    def test_encodes_to_fixture(self, build, fixture, mask):
        assert build().encode().hex() == fixture

    @pytest.mark.parametrize("build, fixture, mask", WIRE_FIXTURES)
    def test_fixture_decodes_to_the_message(self, build, fixture, mask):
        raw = bytes.fromhex(fixture)
        assert decode(raw).encode() == raw
        message = build()
        wanted = message.messages if isinstance(message, Batch) else [message]
        got = decode_all(raw)
        assert [type(m) for m in got] == [type(m) for m in wanted]
        for decoded, want in zip(got, wanted):
            if isinstance(want, Sync):
                decoded.resolve_input_mask(mask)
                assert decoded.ack == want.ack
                assert decoded.first_frame == want.first_frame
                assert decoded.inputs == want.inputs
                assert decoded.stamp == want.stamp
            else:
                assert decoded == want


class TestChangeCoding:
    def _sync(self, inputs):
        return Sync(0, 1, ack=95, first_frame=96, inputs=inputs)

    def test_a_repeated_cell_costs_one_bit(self):
        held = len(self._sync([3] * 17).encode())
        moving = len(self._sync([1, 2] * 8 + [1]).encode())
        assert moving - held == 16  # sixteen changed one-byte cells

    def test_set_bit_on_an_unchanged_cell_rejected(self):
        raw = self._sync([1, 1, 2]).encode()
        assert raw[-3:] == bytes([0b10, 1, 2])  # change map, cells 0 and 2
        with pytest.raises(DecodeError, match="unchanged cell"):
            decode(raw[:-3] + bytes([0b11, 1, 1, 2]))

    def test_non_zero_pad_bits_rejected(self):
        raw = self._sync([1, 1, 2]).encode()
        with pytest.raises(DecodeError, match="pad bits"):
            decode(raw[:-3] + bytes([0b10 | 0x80, 1, 2]))

    def test_implied_length_that_fits_no_width_rejected(self):
        raw = _implied_sync(bytes([1, 1, 3]), 3, 0xFF).encode()
        decode(raw)  # one byte per cell: two carried cells
        with pytest.raises(DecodeError, match="fit no width"):
            decode(raw + b"\x00")

    def test_explicit_cells_length_checked(self):
        raw = self._sync([1, 1, 2]).encode()
        with pytest.raises(DecodeError):
            decode(raw[:-1])
        with pytest.raises(DecodeError):
            decode(raw + b"\x00")


class TestRoundtrips:
    def test_hello(self):
        msg = roundtrip(Hello(1, 7, game_id=0xDEADBEEF, config_digest=0x1234))
        assert msg.sender_site == 1
        assert msg.session_id == 7
        assert msg.game_id == 0xDEADBEEF
        assert msg.config_digest == 0x1234

    def test_welcome(self):
        msg = roundtrip(Welcome(0, 7, assigned_site=3, num_sites=4))
        assert msg.assigned_site == 3
        assert msg.num_sites == 4

    def test_start_and_ack(self):
        assert roundtrip(Start(0, 9)).session_id == 9
        assert roundtrip(StartAck(1, 9)).sender_site == 1

    def test_sync_with_inputs(self):
        msg = roundtrip(
            Sync(1, 7, ack=10, first_frame=6, inputs=[0, 5, 0xFFFF])
        )
        assert msg.ack == 10
        assert msg.first_frame == 6
        assert msg.inputs == [0, 5, 0xFFFF]
        assert msg.last_frame == 8

    def test_sync_pure_ack(self):
        msg = roundtrip(Sync(0, 7, ack=5, first_frame=6, inputs=[]))
        assert msg.inputs == []
        assert msg.last_frame == 5  # first_frame - 1 when empty

    def test_sync_stamped_roundtrip(self):
        plain = Sync(1, 7, ack=10, first_frame=6, inputs=[0, 5, 3])
        msg = Sync(1, 7, ack=10, first_frame=6, inputs=[0, 5, 3])
        msg.annotate(93_750, 120)
        decoded = roundtrip(msg)
        assert decoded.stamp == (93_750, 120)
        assert decoded.inputs == [0, 5, 3]
        assert decoded.ack == 10
        # Two small uvarints: the annotation costs a handful of bytes.
        assert plain.stamp is None
        assert len(msg.encode()) - len(plain.encode()) <= 5

    def test_sync_stamp_requires_inputs(self):
        pure_ack = Sync(0, 7, ack=5, first_frame=6, inputs=[])
        with pytest.raises(ValueError):
            pure_ack.annotate(1000, 0)

    def test_sync_stamped_pure_ack_rejected_on_decode(self):
        # Hand-craft a stamped pure ack (the encoder refuses to build one):
        # set the stamp head flag on a pure ack and append the two tick
        # uvarints; without them the same flag is a truncation error.
        raw = bytearray(Sync(0, 7, ack=5, first_frame=6, inputs=[]).encode())
        # body starts after magic(2) + ver/type(1) + sender(1) + session(1);
        # first body byte is svarint first_frame, second is the head byte.
        head_index = 5 + 1
        raw[head_index] |= 0x40
        with pytest.raises(DecodeError):
            decode(bytes(raw) + b"\x07\x07")  # stamp flag without inputs
        with pytest.raises(DecodeError):
            decode(bytes(raw))  # stamp flag without stamp bytes

    def test_hello_features_roundtrip(self):
        from repro.core.messages import FEATURE_TIMELINE

        msg = roundtrip(Hello(1, 7, game_id=2, config_digest=3, features=FEATURE_TIMELINE))
        assert msg.features == FEATURE_TIMELINE
        assert roundtrip(Hello(1, 7, game_id=2, config_digest=3)).features == 0

    def test_start_features_roundtrip(self):
        msg = roundtrip(Start(0, 9, features=1))
        assert msg.features == 1
        assert roundtrip(Start(0, 9)).features == 0

    def test_pong_remote_timestamp_roundtrip(self):
        extended = roundtrip(
            Pong(1, 7, seq=3, echo_timestamp_us=1000, remote_timestamp_us=2000)
        )
        assert extended.remote_timestamp_us == 2000
        plain = roundtrip(Pong(1, 7, seq=3, echo_timestamp_us=1000))
        assert plain.remote_timestamp_us is None
        # The extension is strictly trailing: a plain pong's bytes are a
        # prefix of the extended one's.
        assert extended.encode().startswith(plain.encode())

    def test_sync_negative_frames(self):
        msg = roundtrip(Sync(0, 7, ack=-1, first_frame=-1, inputs=[7]))
        assert msg.first_frame == -1

    def test_ping_pong(self):
        ping = roundtrip(Ping(0, 7, seq=3, timestamp_us=123456789))
        assert ping.seq == 3
        assert ping.timestamp_us == 123456789
        pong = roundtrip(Pong(1, 7, seq=3, echo_timestamp_us=123456789))
        assert pong.echo_timestamp_us == 123456789

    def test_state_request(self):
        assert roundtrip(StateRequest(2, 7)).sender_site == 2

    def test_state_snapshot_plain(self):
        msg = roundtrip(StateSnapshot(0, 7, frame=100, state=b"\x01\x02\x03"))
        assert msg.frame == 100
        assert msg.state == b"\x01\x02\x03"
        assert msg.backlog == []

    def test_state_snapshot_with_backlog(self):
        msg = roundtrip(
            StateSnapshot(
                0, 7, frame=100, state=b"st", backlog=[[1, 2, 3], [], [9]]
            )
        )
        assert msg.backlog == [[1, 2, 3], [], [9]]

    def test_state_snapshot_empty_state(self):
        msg = roundtrip(StateSnapshot(0, 7, frame=0, state=b""))
        assert msg.state == b""

    def test_bye(self):
        assert roundtrip(Bye(1, 7)).sender_site == 1

    def test_resume(self):
        msg = roundtrip(Resume(1, 7, last_acked_frame=120))
        assert msg.sender_site == 1
        assert msg.session_id == 7
        assert msg.last_acked_frame == 120

    def test_resume_default_cookie_is_negative(self):
        # -1 means "nothing acked yet" and must survive the signed codec.
        assert roundtrip(Resume(2, 7)).last_acked_frame == -1


class TestValidation:
    def test_short_datagram(self):
        with pytest.raises(DecodeError):
            decode(b"abc")

    def test_bad_magic(self):
        raw = bytearray(Start(0, 1).encode())
        raw[0] ^= 0xFF
        with pytest.raises(DecodeError):
            decode(bytes(raw))

    def test_bad_version(self):
        raw = bytearray(Start(0, 1).encode())
        raw[2] = 99
        with pytest.raises(DecodeError):
            decode(bytes(raw))

    def test_unknown_type(self):
        raw = bytearray(Start(0, 1).encode())
        raw[3] = 250
        with pytest.raises(DecodeError):
            decode(bytes(raw))

    def test_truncated_sync_body(self):
        raw = Sync(0, 1, ack=2, first_frame=0, inputs=[1, 2, 3]).encode()
        with pytest.raises(DecodeError):
            decode(raw[:-2])

    def test_cell_beyond_the_mask_rejected(self):
        # Mask 0b101 packs two bits per one-byte cell: 7 sets a third.
        raw = Sync(0, 1, 5, 6, [1, 5]).encode()
        assert raw[-2:] == bytes([1, 3])
        with pytest.raises(DecodeError, match="exceeds the input mask"):
            decode(raw[:-1] + bytes([7]))
        implied = _implied_sync(bytes([1, 3]), 2, 0b101).encode()
        message = decode(implied[:-1] + bytes([7]))
        with pytest.raises(DecodeError, match="exceeds the sender's mask"):
            message.resolve_input_mask(0b101)

    def test_start_with_body_rejected(self):
        raw = Start(0, 1).encode() + b"junk"
        with pytest.raises(DecodeError):
            decode(raw)

    def test_snapshot_truncated_backlog(self):
        raw = StateSnapshot(0, 1, frame=5, state=b"s", backlog=[[1, 2]]).encode()
        with pytest.raises(DecodeError):
            decode(raw[:-3])

    def test_hello_wrong_length(self):
        # One trailing byte reads as an (optional) features word, so two
        # are needed to leave genuine trailing garbage.
        raw = Hello(0, 1, 2, 3).encode() + b"xx"
        with pytest.raises(DecodeError):
            decode(raw)

    def test_hello_zero_features_must_be_omitted(self):
        raw = Hello(0, 1, 2, 3).encode() + b"\x00"
        with pytest.raises(DecodeError):
            decode(raw)

    def test_implausible_ack_count(self):
        import struct

        # Hand-craft a SYNC with a bogus ack count.
        header = struct.pack(">HBBHI", 0x5247, 1, 5, 0, 1)
        body = struct.pack(">i", 1000)
        with pytest.raises(DecodeError):
            decode(header + body)

    def test_garbage_is_decode_error_not_crash(self):
        for garbage in (b"\x00" * 20, bytes(range(64)), b"RG" + b"\xff" * 30):
            with pytest.raises(DecodeError):
                decode(garbage)
