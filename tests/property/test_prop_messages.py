"""Property tests: the wire format round-trips arbitrary field values and
rejects arbitrary garbage without crashing."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core.lockstep import MAX_INPUTS_PER_MESSAGE
from repro.core.messages import (
    DecodeError,
    Hello,
    Ping,
    Pong,
    StateSnapshot,
    Sync,
    decode,
    uvarint_len,
)
from tests.wire import LAYOUTS, field_bytes, sync_of, words_mask

frames = st.integers(min_value=-(2**31), max_value=2**31 - 1)
u16 = st.integers(min_value=0, max_value=0xFFFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
input_words = st.lists(u32, max_size=50)


@st.composite
def cell_windows(draw):
    """``(width, cells)``: a window of 1..MAX_INPUTS_PER_MESSAGE packed
    cells of 0..8 bytes in which each cell changes or repeats at random."""
    width = draw(st.integers(min_value=0, max_value=8))
    count = draw(st.integers(min_value=1, max_value=MAX_INPUTS_PER_MESSAGE))
    top = (1 << (8 * width)) - 1
    cell = draw(st.integers(min_value=0, max_value=top))
    cells = [cell]
    for __ in range(count - 1):
        if width and draw(st.booleans()):
            cell = (cell + draw(st.integers(min_value=1, max_value=top))) & top
        cells.append(cell)
    return width, cells


def _change_map(cells):
    """The canonical change map: bit i-1 set iff cell i != cell i-1."""
    return sum(1 << (i - 1) for i in range(1, len(cells)) if cells[i] != cells[i - 1])


def _section(cells, width, changes):
    """A SYNC's change map and carried cells, written straight from the
    layout of docs/wire-format.md §4 for any map, canonical or not."""
    carried = [cells[0]] + [
        cells[i] for i in range(1, len(cells)) if changes >> (i - 1) & 1
    ]
    return changes.to_bytes((len(cells) + 6) // 8, "little") + b"".join(
        cell.to_bytes(width, "little") for cell in carried
    )


def _implied(width, cells):
    packed = b"".join(cell.to_bytes(width, "little") for cell in cells)
    mask = (1 << (8 * width)) - 1
    return Sync(0, 1, -1, 0, packed, len(cells), mask), mask


@given(
    u16,
    u32,
    frames,
    frames,
    # Past 62 cells the count escapes from the head byte to a uvarint.
    st.lists(u32, max_size=130),
)
def test_sync_roundtrip(sender, session, ack, first_frame, inputs):
    message = sync_of(sender, session, ack, first_frame, inputs)
    raw = message.encode()
    decoded = decode(raw)
    assert decoded.encode() == raw
    decoded.resolve_input_mask(words_mask(inputs))
    assert decoded.sender_site == sender
    assert decoded.session_id == session
    assert decoded.ack == ack
    assert decoded.first_frame == first_frame
    assert decoded.inputs == inputs


#: A SYNC body starts after magic(2), version/type(1), sender(1) and
#: session(1) and a one-byte first frame: the head byte is at this offset.
_HEAD_AT = 6
#: Ack deltas whose zigzag form is one byte below 63.
small_deltas = st.integers(min_value=-31, max_value=31)


@given(cell_windows(), small_deltas)
def test_non_canonical_head_rejected(window, delta):
    """One encoding per window length: 1–62 inline, 63 and up escaped,
    0 a flagless pure ack."""
    width, cells = window
    packed = b"".join(cell.to_bytes(width, "little") for cell in cells)
    mask = (1 << (8 * width)) - 1
    raw = Sync(0, 1, delta, 0, packed, len(cells), mask).encode()
    head = raw[_HEAD_AT]
    assert decode(raw).encode() == raw
    if len(cells) >= 63:
        # An inline 63: the escaped count dropped, so the ack reads as it.
        assert head & 0x3F == 63
        escape = uvarint_len(len(cells))
        with pytest.raises(DecodeError, match="fits the head byte"):
            decode(raw[: _HEAD_AT + 1] + raw[_HEAD_AT + 1 + escape :])
    else:
        # An escaped count below 63.
        forged = bytes([head | 0x3F, len(cells)])
        with pytest.raises(DecodeError, match="fits the head byte"):
            decode(raw[:_HEAD_AT] + forged + raw[_HEAD_AT + 1 :])


@given(small_deltas, st.sampled_from([0x80, 0x40, 0xC0]))
def test_flags_on_a_pure_ack_rejected(delta, flags):
    raw = bytearray(Sync(0, 1, delta, 0).encode())
    assert raw[_HEAD_AT] == 0
    raw[_HEAD_AT] = flags
    with pytest.raises(DecodeError, match="pure ack"):
        decode(bytes(raw))


@given(u16, u32, u32, u32)
def test_hello_roundtrip(sender, session, game_id, digest):
    decoded = decode(Hello(sender, session, game_id, digest).encode())
    assert (decoded.game_id, decoded.config_digest) == (game_id, digest)


@given(u16, u32, u32, st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_ping_pong_roundtrip(sender, session, seq, timestamp):
    ping = decode(Ping(sender, session, seq, timestamp).encode())
    assert (ping.seq, ping.timestamp_us) == (seq, timestamp)
    pong = decode(Pong(sender, session, seq, timestamp).encode())
    assert (pong.seq, pong.echo_timestamp_us) == (seq, timestamp)


@given(
    u16,
    u32,
    frames,
    st.binary(max_size=2000),
    st.lists(st.lists(u32, max_size=20), max_size=4),
)
def test_snapshot_roundtrip(sender, session, frame, state, backlog):
    message = StateSnapshot(sender, session, frame, state, backlog)
    decoded = decode(message.encode())
    assert decoded.frame == frame
    assert decoded.state == state
    assert decoded.backlog == backlog


@given(st.binary(max_size=256))
def test_arbitrary_bytes_never_crash(raw):
    """decode() must raise DecodeError or return a message — never crash."""
    try:
        decode(raw)
    except DecodeError:
        pass


@given(
    frames,
    frames,
    input_words,
    st.integers(min_value=0, max_value=200),
)
def test_truncated_sync_never_crashes(ack, first_frame, inputs, cut):
    raw = sync_of(0, 1, ack, first_frame, inputs).encode()
    truncated = raw[: max(0, len(raw) - cut)]
    try:
        message = decode(truncated)
    except DecodeError:
        return
    # If it decoded, it must be byte-for-byte self-consistent.
    assert message.encode() == truncated


@given(st.binary(min_size=14, max_size=64), st.integers(min_value=0, max_value=13))
def test_bitflip_detected_or_consistent(raw_tail, position):
    raw = bytearray(sync_of(0, 1, 5, 6, [1, 2]).encode())
    raw[position % len(raw)] ^= 0xA5
    try:
        decode(bytes(raw))
    except DecodeError:
        pass  # flagged, good


@given(cell_windows())
def test_change_coded_window_roundtrip(window):
    width, cells = window
    message, mask = _implied(width, cells)
    raw = message.encode()
    assert raw.endswith(_section(cells, width, _change_map(cells)))
    decoded = decode(raw)
    assert decoded.encode() == raw
    decoded.resolve_input_mask(mask)
    assert decoded.inputs == message.inputs


@given(cell_windows(), st.data())
def test_non_canonical_change_coding_rejected(window, data):
    width, cells = window
    raw = _implied(width, cells)[0].encode()
    canonical = _change_map(cells)
    head = raw[: len(raw) - len(_section(cells, width, canonical))]
    unchanged = [i for i in range(1, len(cells)) if cells[i] == cells[i - 1]]
    if unchanged:
        index = data.draw(st.sampled_from(unchanged))
        forged = _section(cells, width, canonical | 1 << (index - 1))
        with pytest.raises(DecodeError):
            decode(head + forged)
    if (len(cells) - 1) % 8:
        with pytest.raises(DecodeError, match="pad bits"):
            decode(head + _section(cells, width, canonical | 1 << (len(cells) - 1)))
    carried = 1 + bin(canonical).count("1")
    extra = data.draw(st.integers(min_value=1, max_value=16))
    if extra % carried:
        with pytest.raises(DecodeError):
            decode(raw + bytes(extra))


@st.composite
def layout_messages(draw):
    """A message of any declared layout; a trailing field holds its
    default about half the time."""
    klass = draw(st.sampled_from(LAYOUTS))
    values = []
    for field in klass.BODY:
        if field.kind == "svarint":
            value = draw(st.integers(min_value=-(2**63), max_value=2**63 - 1))
        else:
            top = 2**64 - 1 if field.bound is None else field.bound
            value = draw(st.integers(min_value=0, max_value=top))
        if field.trailing and draw(st.booleans()):
            value = getattr(klass, field.name)
        values.append(value)
    return klass(draw(u16), draw(u32), *values)


@given(layout_messages())
def test_every_layout_roundtrips_and_refuses_prefixes(message):
    """Encode→decode identity, every proper prefix refused (but the one
    that omits a trailing field, which is that field at its default), and
    a trailing field encoded at its default refused."""
    klass = type(message)
    raw = message.encode()
    assert decode(raw) == message
    assert decode(raw).encode() == raw
    trailing = [field for field in klass.BODY if field.trailing]
    short = message
    for field in trailing:
        short = dataclasses.replace(short, **{field.name: getattr(klass, field.name)})
    for cut in range(len(raw)):
        if raw[:cut] == short.encode():
            assert decode(raw[:cut]) == short
        else:
            with pytest.raises(DecodeError):
                decode(raw[:cut])
    for field in trailing:
        default = getattr(klass, field.name)
        if default is not None:
            with pytest.raises(DecodeError, match="must be omitted"):
                decode(short.encode() + field_bytes(field, default))
