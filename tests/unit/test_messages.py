"""Unit tests for repro.core.messages (wire format)."""

import dataclasses
import re
import zlib
from pathlib import Path

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
    StateDigest,
    StateRequest,
    StateSnapshot,
    Sync,
    Welcome,
    _REGISTRY,
    decode,
    decode_all,
    encode_packet,
)
from tests.wire import LAYOUTS, field_bytes, sync_of


def roundtrip(message, mask=None):
    """``message`` encoded and decoded; a SYNC is resolved with ``mask``."""
    decoded = decode(message.encode())
    assert type(decoded) is type(message)
    if mask is not None:
        decoded.resolve_input_mask(mask)
    return decoded


def _implied_sync(packed, count, mask, ack=120, first_frame=116, sender=1):
    return Sync(sender, 7, ack, first_frame, packed, count, mask)


def _stamped_sync():
    message = _implied_sync(bytes([1, 1, 3, 3, 3, 0]), 6, 0xFF)
    message.annotate(93_750, 120)
    return message


#: Frozen v4 datagrams: every message type, every layout the SYNC decoder
#: tells apart, and both forms of every optional-trailing field, as
#: ``(build, hex bytes, mask the receiver resolves an implied-mask SYNC
#: with)``.  docs/wire-format.md §4 walks through the first SYNC and the
#: escaped count byte by byte.
WIRE_FIXTURES = [
    pytest.param(
        lambda: _implied_sync(bytes([1, 1, 3, 3, 3, 0]), 6, 0xFF),
        "5247450107e801860812010300",
        0xFF,
        id="sync-implied-mask",
    ),
    pytest.param(
        _stamped_sync, "5247450107e801c608b6dc057812010300", 0xFF, id="sync-stamped"
    ),
    pytest.param(
        lambda: Sync(0, 7, 5, 6), "52474500070c0001", None, id="sync-pure-ack"
    ),
    pytest.param(
        lambda: _implied_sync(bytes([1] * 32 + [2] * 32), 64, 0xFF, ack=180),
        "5247450107e801bf40800100000080000000000102",
        0xFF,
        id="sync-escaped-count",
    ),
    pytest.param(
        lambda: _implied_sync(b"", 3, 0, ack=3, first_frame=4),
        "524745010708830100",
        0,
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
        lambda: Hello(1, 7, 0xDEADBEEF, 0x12345678),
        "5247410107effdb6f50df8acd19101",
        None,
        id="hello-no-features",
    ),
    pytest.param(lambda: Welcome(0, 7, 3, 4), "52474200070608", None, id="welcome"),
    pytest.param(lambda: Start(0, 7), "5247430007", None, id="start"),
    pytest.param(
        lambda: Start(0, 7, FEATURE_TIMELINE | FEATURE_DIGEST),
        "524743000703",
        None,
        id="start-features",
    ),
    pytest.param(lambda: StartAck(1, 7), "5247440107", None, id="start-ack"),
    pytest.param(
        lambda: Ping(0, 7, 42, 1_234_567), "52474600072a8eda9601", None, id="ping"
    ),
    pytest.param(
        lambda: Pong(1, 7, 42, 1_234_567), "52474701072a8eda9601", None, id="pong"
    ),
    pytest.param(
        lambda: Pong(1, 7, 42, 1_234_567, -5_000),
        "52474701072a8eda96018f4e",
        None,
        id="pong-remote-timestamp",
    ),
    pytest.param(lambda: StateRequest(2, 7), "5247480207", None, id="state-request"),
    pytest.param(
        lambda: StateSnapshot(0, 7, 100, b"\x01\x02\x03"),
        "5247490007c8010301020300",
        None,
        id="state-snapshot",
    ),
    pytest.param(
        lambda: StateSnapshot(0, 7, 100, b"st", [[1, 2, 300], [], [9]]),
        "5247490007c80102737403030102ac02000109",
        None,
        id="state-snapshot-backlog",
    ),
    pytest.param(
        lambda: StateSnapshot(0, 7, 100, b"st", [], zlib.crc32(b"st")),
        "5247490007c80102737400ef9b8e9501",
        None,
        id="state-snapshot-crc",
    ),
    pytest.param(
        lambda: StateSnapshot(0, 7, 100, b"st", [[1, 2, 300], [], [9]], zlib.crc32(b"st")),
        "5247490007c80102737403030102ac02000109ef9b8e9501",
        None,
        id="state-snapshot-backlog-crc",
    ),
    pytest.param(lambda: Bye(1, 7), "52474a0107", None, id="bye"),
    pytest.param(lambda: Resume(1, 7, 120), "52474b0107f001", None, id="resume"),
    pytest.param(lambda: Resume(2, 7), "52474b020701", None, id="resume-unknown"),
    pytest.param(
        lambda: Resume(1, 7, 120, 96), "52474b0107f001c001", None, id="resume-resync"
    ),
    pytest.param(
        lambda: Batch(
            0,
            7,
            [
                _implied_sync(bytes([1] * 9 + [2]), 10, 0xFF, 8, 9, sender=0),
                Ping(0, 7, 42, 1_234_567),
            ],
        ),
        "52474c0007020507128a010001010206052a8eda9601",
        0xFF,
        id="batch",
    ),
    pytest.param(
        lambda: StateDigest(1, 7, 600, 0xCAFEBABE),
        "52474f0107b009bef5fad70c",
        None,
        id="state-digest",
    ),
]

#: The explicit-mask SYNC form: a mask uvarint after the ack, head bit 7
#: clear.  The sync layer never sent it, and decode now refuses it, as
#: ``(the same window built today, hex refused, hex it encodes to now)``:
#: bit 7 set and the mask byte ``05`` gone.
REFUSED_FIXTURES = [
    pytest.param(
        lambda: sync_of(1, 7, 10, 6, [0, 5, 5, 4]),
        "52474501070c04080505000302",
        "52474501070c840805000302",
        id="sync-explicit-mask",
    ),
]


#: The retired mode-switch handshake, as frozen v4 bytes: SWITCH_REQUEST
#: (type 13) and SWITCH_ACK (type 14) in both modes.  A mode switch is a
#: local decision, so no peer sends them any more, and decode refuses both
#: types as unknown.
RETIRED_FIXTURES = [
    pytest.param("52474d00070300f403", id="switch-req-lockstep"),
    pytest.param("52474d01070401d00f", id="switch-req-rollback"),
    pytest.param("52474e01070300", id="switch-ack-lockstep"),
    pytest.param("52474e00070401", id="switch-ack-rollback"),
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

    @pytest.mark.parametrize("build, refused, implied", REFUSED_FIXTURES)
    def test_refused_fixture_raises(self, build, refused, implied):
        with pytest.raises(DecodeError, match="implied-mask flag"):
            decode(bytes.fromhex(refused))

    @pytest.mark.parametrize("retired", RETIRED_FIXTURES)
    def test_retired_type_raises(self, retired):
        with pytest.raises(DecodeError, match=r"^unknown message type 1[34]$"):
            decode(bytes.fromhex(retired))

    @pytest.mark.parametrize("build, refused, implied", REFUSED_FIXTURES)
    def test_refused_window_encodes_implied(self, build, refused, implied):
        message = build()
        assert message.encode().hex() == implied
        assert roundtrip(message, 0b101).inputs == [0, 5, 5, 4]


class TestChangeCoding:
    def _sync(self, inputs):
        return sync_of(0, 1, 95, 96, inputs)

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
        msg = roundtrip(sync_of(1, 7, 10, 6, [0, 5, 0xFFFF]), 0xFFFF)
        assert msg.ack == 10
        assert msg.first_frame == 6
        assert msg.inputs == [0, 5, 0xFFFF]
        assert msg.last_frame == 8

    def test_sync_pure_ack(self):
        msg = roundtrip(Sync(0, 7, ack=5, first_frame=6))
        assert msg.inputs == []
        assert msg.last_frame == 5  # first_frame - 1 when empty

    def test_sync_stamped_roundtrip(self):
        plain = sync_of(1, 7, 10, 6, [0, 5, 3])
        msg = sync_of(1, 7, 10, 6, [0, 5, 3])
        msg.annotate(93_750, 120)
        decoded = roundtrip(msg, 0b111)
        assert decoded.stamp == (93_750, 120)
        assert decoded.inputs == [0, 5, 3]
        assert decoded.ack == 10
        # Two small uvarints: the annotation costs a handful of bytes.
        assert plain.stamp is None
        assert len(msg.encode()) - len(plain.encode()) <= 5

    def test_sync_stamp_requires_inputs(self):
        pure_ack = Sync(0, 7, ack=5, first_frame=6)
        with pytest.raises(ValueError):
            pure_ack.annotate(1000, 0)

    def test_sync_stamped_pure_ack_rejected_on_decode(self):
        # Hand-craft a stamped pure ack (the encoder refuses to build one):
        # set the stamp head flag on a pure ack and append the two tick
        # uvarints; without them the same flag is a truncation error.
        raw = bytearray(Sync(0, 7, ack=5, first_frame=6).encode())
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
        msg = roundtrip(sync_of(0, 7, -1, -1, [7]), 7)
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
        raw = sync_of(0, 1, 2, 0, [1, 2, 3]).encode()
        with pytest.raises(DecodeError):
            decode(raw[:-2])

    def test_cell_beyond_the_mask_rejected(self):
        # Mask 0b101 packs two bits per one-byte cell: 7 sets a third.
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


WIRE_FORMAT = Path(__file__).resolve().parents[2] / "docs" / "wire-format.md"


def documented_body(klass):
    """A layout as docs/wire-format.md §3 writes it."""
    cells = []
    for field in klass.BODY:
        bound = "" if field.bound is None else f" ≤ {field.bound}"
        cell = f"`{field.name}` ({field.kind}{bound})"
        cells.append(f"[{cell}]" if field.trailing else cell)
    return ", ".join(cells) or "—"


class TestLayouts:
    def test_ten_messages_declare_their_body(self):
        assert sorted(klass.NAME for klass in LAYOUTS) == [
            "BYE", "HELLO", "PING", "PONG", "RESUME", "START", "START_ACK",
            "STATE_DIGEST", "STATE_REQUEST", "WELCOME",
        ]

    @pytest.mark.parametrize("klass", LAYOUTS, ids=lambda klass: klass.NAME)
    def test_body_follows_the_dataclass_fields(self, klass):
        """The codec builds a message positionally, and only the last
        field may be optional."""
        names = [field.name for field in dataclasses.fields(klass)]
        assert names[2:] == [field.name for field in klass.BODY]
        assert not any(field.trailing for field in klass.BODY[:-1])

    def test_wire_format_table_matches_the_layouts(self):
        text = WIRE_FORMAT.read_text(encoding="utf-8")
        section = text[text.index("## 3. Message types") : text.index("## 4. SYNC")]
        rows = re.findall(r"^\| (\d+) \| (\w+) \| (.+) \|$", section, re.MULTILINE)
        table = {int(type_id): (name, body) for type_id, name, body in rows}
        assert sorted(table) == sorted(_REGISTRY)
        for type_id, klass in _REGISTRY.items():
            name, body = table[type_id]
            assert name == klass.NAME
            if klass in LAYOUTS:
                assert body == documented_body(klass)

    @pytest.mark.parametrize(
        "message, field",
        [(StateDigest(1, 7, 600, 1 << 32), "checksum")],
        ids=["state-digest"],
    )
    def test_a_value_past_its_bound_is_refused(self, message, field):
        with pytest.raises(ValueError, match=f"{field} .* exceeds"):
            message.encode()
        body = b"".join(field_bytes(each, getattr(message, each.name)) for each in message.BODY)
        forged = encode_packet(message.TYPE_ID, 0, 7, body)
        with pytest.raises(DecodeError, match=f"{field} .* exceeds"):
            decode(forged)

    def test_sync_cells_must_fill_the_window(self):
        with pytest.raises(ValueError, match="not 3 cells"):
            Sync(0, 7, 5, 6, bytes(2), 3, 0xFF)
        with pytest.raises(ValueError):
            Sync(0, 7, 5, 6, bytes(3), 3)  # no mask, no width: zero-width cells
