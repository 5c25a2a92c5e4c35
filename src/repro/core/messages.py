"""Sync-module wire format, version 4 (compact binary codec).

Algorithm 2's ``sd`` message is a vector::

    sd[0]    = LastRcvFrame[RmSiteNo]      (cumulative ack to the peer)
    sd[1]    = LastAckFrame[RmSiteNo] + 1  (first frame of carried inputs)
    sd[2]    = LastRcvFrame[MySiteNo]      (last frame of carried inputs)
    sd[3...] = IBuf[sd[1]](MySET) ... IBuf[sd[2]](MySET)

:class:`Sync` carries exactly that: one ack, for its destination.  SYNCs
are built per peer, so the N-site extension needs no ack vector.

A varint-based encoding — see ``docs/wire-format.md`` for the
byte-by-byte specification.  The load-bearing choices:

* **5-byte typical header** — ``b"RG"``, one version/type byte (version in
  the high nibble, type id in the low), then uvarint sender site and
  session id.  v1, v2 and v3 datagrams are rejected with an explicit
  "unsupported wire version N" error (a v1 datagram's third byte is
  always ``0x01``, its version field).
* **Frame deltas** — SYNC encodes its ack as a zigzag varint delta
  relative to ``first_frame``; a steady-state ack sits within a few frames
  of the window base and costs one byte instead of four.
* **Window length in the head byte** — a SYNC's head byte holds two flags
  and the input count: 1–62 inline, 63 escapes to a uvarint, 0 is a pure
  ack.
* **Bitfield-packed inputs** — per-frame input words are compressed with
  the sender's input-assignment mask (compact_bits, a pure-Python PEXT)
  into fixed-width little-endian cells: one byte per frame for an 8-bit
  pad instead of four.  The mask itself is *implied* — both sides derive
  it from the input assignment — so the wire carries only a flag.
* **Change-coded windows** — Algorithm 2 resends the whole unacked
  window, so most cells of a SYNC were sent before, and about half
  repeat the frame before.  A change map (one bit per frame) carries a
  cell only where it differs from its predecessor; decode expands the
  window back to fixed-width cells, so nothing past the codec changes.
* **Canonical varints** — decode rejects non-minimal encodings, so any
  successfully decoded message re-encodes to the identical bytes; the
  truncation/corruption property tests lean on this.
* **Batch container** — type 12 wraps several messages for one destination
  behind a single shared header (tick-level coalescing in the engine's
  send path); :func:`decode_all` flattens a datagram back into its
  constituent messages.  Nested batches are rejected.

All frame numbers are signed (zigzag) because the protocol's initial
"last received" values are ``BufFrame - 1``, which is ``-1`` when local
lag is disabled.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, NamedTuple, Optional, Tuple, Type

MAGIC = b"RG"  # Retro Gaming
VERSION = 4

#: Coalesced datagrams are kept under this many payload bytes so a batch
#: never risks IP fragmentation (conservative for a 1500-byte MTU path).
#: Oversized members — a late-join STATE_SNAPSHOT, typically — simply go
#: out as standalone datagrams.
MAX_BATCH_BYTES = 1200

_MIN_HEADER = 5  # magic(2) + version/type(1) + sender(>=1) + session(>=1)

#: Feature bits advertised in HELLO and granted session-wide in START.
#: A zero feature word is *omitted* from the wire, so a build that knows
#: no features encodes byte-identically to the pre-feature layout —
#: that is the whole interop story: feature-less peers neither send nor see
#: the field, and feature-dependent traffic (stamped SYNC, extended
#: PONG) is only emitted toward peers that negotiated it.
FEATURE_TIMELINE = 0x01

#: Live divergence detection: both sites periodically piggyback a
#: STATE_DIGEST (frame, state checksum) on their sync flushes so a desync
#: is agreed on within one digest window.  Negotiated because the digest
#: is a distinct message type riding the shared BATCH container — a
#: pre-digest decoder would reject the whole datagram on the unknown id.
FEATURE_DIGEST = 0x02

#: Stamp timestamps are carried in coarse ticks so the annotation stays
#: 2–4 bytes for session-length clock values (64 µs resolution is two
#: orders of magnitude below one frame at 60 cfps).
STAMP_TICK_US = 64


def stamp_ticks(seconds: float) -> int:
    """A clock reading in stamp wire ticks (non-negative, rounded)."""
    # Inline arithmetic (no round()/max() calls): this runs once per flush
    # on the send path.
    return int(seconds * (1_000_000 / STAMP_TICK_US) + 0.5) if seconds > 0 else 0


def from_stamp_ticks(ticks: int) -> float:
    """STAMP wire ticks back to seconds."""
    return ticks * STAMP_TICK_US / 1_000_000


class DecodeError(ValueError):
    """Raised when a datagram is not a well-formed sync-module message."""


# ----------------------------------------------------------------------
# Varint primitives (unsigned LEB128; zigzag for signed values).
# ----------------------------------------------------------------------
def append_uvarint(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            out.append(low | 0x80)
        else:
            out.append(low)
            return


def append_svarint(out: bytearray, value: int) -> None:
    """Append a signed value, zigzag-mapped onto a uvarint."""
    if value >= 0:
        append_uvarint(out, value << 1)
    else:
        append_uvarint(out, ((-value) << 1) - 1)


def uvarint_len(value: int) -> int:
    """Encoded byte length of ``value`` as a uvarint (for size budgeting)."""
    length = 1
    while value > 0x7F:
        value >>= 7
        length += 1
    return length


def read_uvarint(buf: bytes, offset: int, what: str = "varint") -> Tuple[int, int]:
    """Decode one canonical uvarint; returns ``(value, next_offset)``.

    Rejects truncation, encodings longer than 10 bytes, and non-minimal
    forms (a multi-byte varint whose final group is zero) — canonicality
    is what makes decode→re-encode byte-identical.
    """
    result = 0
    shift = 0
    start = offset
    limit = len(buf)
    while True:
        if offset >= limit:
            raise DecodeError(f"truncated {what}")
        byte = buf[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and offset - start > 1:
                raise DecodeError(f"non-canonical {what}")
            return result, offset
        shift += 7
        if shift > 63:
            raise DecodeError(f"{what} longer than 10 bytes")


def read_svarint(buf: bytes, offset: int, what: str = "varint") -> Tuple[int, int]:
    raw, offset = read_uvarint(buf, offset, what)
    if raw & 1:
        return -((raw + 1) >> 1), offset
    return raw >> 1, offset


# ----------------------------------------------------------------------
# Bitfield packing: pure-Python PEXT/PDEP against an input-assignment mask.
# ----------------------------------------------------------------------
_MASK_POSITIONS: Dict[int, Tuple[int, ...]] = {}


def mask_positions(mask: int) -> Tuple[int, ...]:
    """Bit positions set in ``mask``, lowest first (cached per mask)."""
    cached = _MASK_POSITIONS.get(mask)
    if cached is None:
        positions = []
        bit = 0
        remaining = mask
        while remaining:
            if remaining & 1:
                positions.append(bit)
            remaining >>= 1
            bit += 1
        cached = tuple(positions)
        _MASK_POSITIONS[mask] = cached
    return cached


def cell_width(mask: int) -> int:
    """Bytes per packed input cell for a site whose assignment is ``mask``."""
    return (len(mask_positions(mask)) + 7) // 8


def compact_bits(value: int, mask: int) -> int:
    """Gather the bits of ``value`` selected by ``mask`` into the low bits."""
    if mask == 0:
        return 0
    positions = mask_positions(mask)
    first = positions[0]
    if len(positions) == positions[-1] - first + 1:  # contiguous mask
        return (value & mask) >> first
    out = 0
    for index, position in enumerate(positions):
        if (value >> position) & 1:
            out |= 1 << index
    return out


def expand_bits(cell: int, mask: int) -> int:
    """Scatter the low bits of ``cell`` back to the positions of ``mask``."""
    if mask == 0:
        return 0
    positions = mask_positions(mask)
    first = positions[0]
    if len(positions) == positions[-1] - first + 1:  # contiguous mask
        return (cell << first) & mask
    out = 0
    for index, position in enumerate(positions):
        if (cell >> index) & 1:
            out |= 1 << position
    return out


def _check_cells_fit(packed: bytes, width: int, mask: int) -> None:
    """Raise :class:`DecodeError` if a packed cell sets a bit ``mask`` lacks."""
    popcount = len(mask_positions(mask))
    if popcount == 8 * width:
        return  # every bit of a cell is a mask bit: the common byte-wide pad
    for start in range(0, len(packed), width):
        if int.from_bytes(packed[start : start + width], "little") >> popcount:
            raise DecodeError("SYNC input cell exceeds the sender's mask")


# ----------------------------------------------------------------------
# Change coding: a SYNC window carries a cell only where it changed.
# ----------------------------------------------------------------------
def _append_change_coded(out: bytearray, packed: bytes, count: int, width: int) -> None:
    """Append ``count`` packed cells as a change map plus the changed cells.

    Bit ``i - 1`` of the little-endian map is set iff cell ``i`` differs
    from cell ``i - 1``; cell 0 and each changed cell follow in frame order.
    """
    maplen = (count + 6) >> 3
    if not width:
        out += bytes(maplen)
        return
    # Bytes iterate as ints, so a byte-wide cell (the common pad) needs no
    # slicing; wider cells are compared as slices.
    if width == 1:
        cells = packed
    else:
        cells = [packed[at : at + width] for at in range(0, len(packed), width)]
    prev = cells[0]
    carried = [prev]
    changes = 0
    bit = 1
    for cell in cells[1:]:
        if cell != prev:
            changes |= bit
            carried.append(cell)
            prev = cell
        bit <<= 1
    out += changes.to_bytes(maplen, "little")
    out += bytes(carried) if width == 1 else b"".join(carried)


def _expand_changes(
    body: bytes, offset: int, count: int, width: int, changes: int
) -> bytes:
    """The ``count`` packed cells that a change map and its cells encode.

    Raises :class:`DecodeError` when the map marks a cell equal to its
    predecessor: that form has a shorter encoding, and decode accepts only
    the canonical one.
    """
    prev = body[offset : offset + width]
    offset += width
    cells = [prev]
    for index in range(count - 1):
        if changes >> index & 1:
            cell = body[offset : offset + width]
            offset += width
            if cell == prev:
                raise DecodeError("SYNC change map marks an unchanged cell")
            prev = cell
        cells.append(prev)
    return b"".join(cells)


# ----------------------------------------------------------------------
# Messages.
# ----------------------------------------------------------------------
class Field(NamedTuple):
    """One varint of a fixed-layout message body (see :attr:`Message.BODY`).

    ``kind`` is ``"uvarint"`` or ``"svarint"``.  A ``trailing`` field is
    optional: it is omitted exactly when it holds its dataclass default,
    and decode refuses it encoded with that default, so each value has one
    encoding.  ``bound`` caps the value on both sides.
    """

    name: str
    kind: str
    trailing: bool = False
    bound: Optional[int] = None


def _u(name: str, trailing: bool = False, bound: Optional[int] = None) -> Field:
    return Field(name, "uvarint", trailing, bound)


def _s(name: str, trailing: bool = False) -> Field:
    return Field(name, "svarint", trailing)


def _expect_end(body: bytes, offset: int, name: str) -> None:
    if offset != len(body):
        raise DecodeError(f"{name} has {len(body) - offset} trailing bytes")


class Message:
    """Base class; concrete messages define ``TYPE_ID`` and a body layout.

    A fixed-layout message lists its body in :attr:`BODY`, in dataclass
    field order after the header's ``sender_site`` and ``session_id``, and
    the codec below applies it.  SYNC, STATE_SNAPSHOT and BATCH carry
    variable-length bodies and override both halves.
    """

    TYPE_ID: ClassVar[int] = -1
    #: The body, one varint per field; an optional field comes last.
    BODY: ClassVar[Tuple[Field, ...]] = ()
    #: Wire name in error messages: ``StartAck`` reads ``START_ACK``.
    NAME: ClassVar[str] = ""

    sender_site: int
    session_id: int

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.NAME = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).upper()

    def encode(self) -> bytes:
        return encode_packet(
            self.TYPE_ID, self.sender_site, self.session_id, self._encode_body()
        )

    def _encode_body(self) -> bytes:
        out = bytearray()
        for name, kind, trailing, bound in self.BODY:
            value = getattr(self, name)
            if trailing and value == getattr(type(self), name):
                continue
            if bound is not None and value > bound:
                raise ValueError(f"{self.NAME} {name} {value} exceeds {bound}")
            (append_svarint if kind == "svarint" else append_uvarint)(out, value)
        return bytes(out)

    @classmethod
    def _decode_body(cls, sender_site: int, session_id: int, body: bytes) -> "Message":
        values = []
        offset = 0
        for name, kind, trailing, bound in cls.BODY:
            if trailing and offset == len(body):
                values.append(getattr(cls, name))
                continue
            what = f"{cls.NAME} {name}"
            read = read_svarint if kind == "svarint" else read_uvarint
            value, offset = read(body, offset, what)
            if trailing and value == getattr(cls, name):
                raise DecodeError(f"{what} holds its default and must be omitted")
            if bound is not None and value > bound:
                raise DecodeError(f"{what} {value} exceeds {bound}")
            values.append(value)
        _expect_end(body, offset, cls.NAME)
        return cls(sender_site, session_id, *values)


@dataclass
class Hello(Message):
    """Join request from a prospective site to the session master."""

    TYPE_ID: ClassVar[int] = 1
    BODY = (_u("game_id"), _u("config_digest"), _u("features", trailing=True))

    sender_site: int
    session_id: int
    game_id: int  # digest of the game image; both sides must match (§2)
    config_digest: int  # digest of SyncConfig; a mismatch would desync pacing
    #: Optional feature bits the joiner supports (FEATURE_*).  Zero is
    #: omitted from the wire, keeping pre-feature encodings byte-identical.
    features: int = 0


@dataclass
class Welcome(Message):
    """Master's reply to HELLO, assigning the joiner its site number."""

    TYPE_ID: ClassVar[int] = 2
    BODY = (_s("assigned_site"), _s("num_sites"))

    sender_site: int
    session_id: int
    assigned_site: int
    num_sites: int


@dataclass
class Start(Message):
    """Master's go signal; receivers begin frame 0 on receipt.

    The paper's session control "ensures that two sites start at almost the
    same time, with at most one round-trip time deviation" — achieved by
    sending START to everyone in one burst and starting locally at the same
    instant.

    START is also where optional features are *granted*: the master ANDs
    its own feature word with every joiner's HELLO advertisement and
    broadcasts the intersection, so all sites — including joiner↔joiner
    pairs that never exchanged a handshake directly — agree on the same
    session-wide feature set before frame 0.  Zero is omitted from the
    wire (byte-identical to the pre-feature encoding).
    """

    TYPE_ID: ClassVar[int] = 3
    BODY = (_u("features", trailing=True),)

    sender_site: int
    session_id: int
    #: Session-wide granted feature bits (intersection of all HELLOs).
    features: int = 0


@dataclass
class StartAck(Message):
    """Receiver's confirmation of START (so the master may also begin)."""

    TYPE_ID: ClassVar[int] = 4

    sender_site: int
    session_id: int


#: SYNC head-byte flag: the input mask is implied by the sender's input
#: assignment rather than carried on the wire.  Set on every SYNC that
#: carries inputs; decode refuses one without it.
_SYNC_MASK_IMPLIED = 0x80
#: SYNC head-byte flag: a timeline stamp (two uvarint tick fields) follows
#: the ack.  Only emitted toward peers that negotiated FEATURE_TIMELINE.
_SYNC_STAMPED = 0x40
#: The head byte's low six bits are the input count; this value escapes a
#: count of 63 or more to a uvarint right after the head byte.
_SYNC_COUNT_ESCAPE = 0x3F
#: Decode guards: far beyond anything a real session produces, but they
#: bound allocations for hostile datagrams.
_MAX_SYNC_INPUTS = 1 << 16
_MAX_CELL_WIDTH = 8  # inputs are at most 64-bit words


class Sync(Message):
    """The workhorse: an ack + a contiguous window of the sender's inputs.

    The window arrives as ``count`` packed cells of ``width`` bytes (by
    default the width of ``input_mask``, the sender's assignment mask),
    the form the sync layer's incremental encode cache holds them in; a
    pure ack passes neither.  The mask never rides the wire: a decoded
    SYNC keeps its cells packed and must be resolved against the sender's
    assignment via :meth:`resolve_input_mask` (the engine does this on
    receipt) before :attr:`inputs` is first read.

    ``encode()`` always reproduces the stored wire form byte-for-byte,
    which is what makes decode→re-encode identity hold for the property
    tests.
    """

    TYPE_ID: ClassVar[int] = 5

    def __init__(
        self,
        sender_site: int,
        session_id: int,
        ack: int,
        first_frame: int,
        packed: bytes = b"",
        count: int = 0,
        input_mask: Optional[int] = None,
        width: Optional[int] = None,
    ):
        if width is None:
            width = cell_width(input_mask or 0)
        if len(packed) != count * width:
            raise ValueError(f"{len(packed)} bytes are not {count} cells of {width}")
        self.sender_site = sender_site
        self.session_id = session_id
        #: sd[0]: the sender's LastRcvFrame for this message's destination.
        self.ack = ack
        #: First frame of the carried inputs window (sd[1]).
        self.first_frame = first_frame
        self._packed = packed
        self._count = count
        self._width = width
        self._input_mask = input_mask
        self._inputs: Optional[List[int]] = None
        self._stamp: Optional[Tuple[int, int]] = None

    @property
    def stamp(self) -> Optional[Tuple[int, int]]:
        """Timeline annotation ``(send_ticks, capture_ticks)`` or None.

        ``send_ticks`` is the sender's clock at flush time in
        :data:`STAMP_TICK_US` ticks; ``capture_ticks`` is how long before
        the flush the window's newest input was sampled from the pad.
        The annotated frame is implicitly :attr:`last_frame`.
        """
        return self._stamp

    def annotate(self, send_ticks: int, capture_ticks: int) -> None:
        """Attach the FEATURE_TIMELINE stamp (input-carrying SYNCs only)."""
        if not self._count:
            raise ValueError("cannot stamp a pure-ack SYNC")
        self._stamp = (send_ticks, capture_ticks)

    @property
    def input_count(self) -> int:
        """Number of carried input frames (without materializing them)."""
        return self._count

    @property
    def last_frame(self) -> int:
        """sd[2]: last frame carried; ``first_frame - 1`` when empty."""
        return self.first_frame + self._count - 1

    @property
    def needs_mask(self) -> bool:
        """True for a decoded SYNC whose cells are not yet bound to a mask."""
        return self._input_mask is None and self._width > 0

    def resolve_input_mask(self, mask: int) -> None:
        """Bind a decoded SYNC to the sender's assignment mask.

        Validates that the wire cell width matches the mask and that every
        cell fits within it; raises :class:`DecodeError` otherwise.  A
        no-op when the mask is already known.
        """
        if not self.needs_mask:
            return
        if cell_width(mask) != self._width:
            raise DecodeError(
                f"SYNC cell width {self._width} does not match the sender's "
                f"input mask {mask:#x}"
            )
        _check_cells_fit(self._packed, self._width, mask)
        self._input_mask = mask

    @property
    def inputs(self) -> List[int]:
        """The sender's partial inputs for first_frame.. (sd[3...]); empty
        when the message is a pure ack.  Unpacks lazily on first access."""
        if self._inputs is None:
            mask, packed, width = self._input_mask, self._packed, self._width
            if not width:
                self._inputs = [0] * self._count
            elif mask is None:
                raise DecodeError("SYNC not resolved against an input assignment")
            else:
                self._inputs = [
                    expand_bits(int.from_bytes(packed[at : at + width], "little"), mask)
                    for at in range(0, len(packed), width)
                ]
        return self._inputs

    def _encode_body(self) -> bytes:
        out = bytearray()
        append_svarint(out, self.first_frame)
        count = self._count
        head = min(count, _SYNC_COUNT_ESCAPE)
        if count:
            head |= _SYNC_MASK_IMPLIED
        stamp = self._stamp
        if stamp is not None:
            head |= _SYNC_STAMPED
        out.append(head)
        if count >= _SYNC_COUNT_ESCAPE:
            append_uvarint(out, count)
        append_svarint(out, self.ack - self.first_frame)
        if stamp is not None:
            append_uvarint(out, stamp[0])
            append_uvarint(out, stamp[1])
        if count:
            _append_change_coded(out, self._packed, count, self._width)
        return bytes(out)

    @classmethod
    def _decode_body(cls, sender_site: int, session_id: int, body: bytes) -> "Sync":
        first_frame, offset = read_svarint(body, 0, "SYNC first frame")
        if offset >= len(body):
            raise DecodeError("truncated SYNC body (missing head byte)")
        head = body[offset]
        offset += 1
        count = head & _SYNC_COUNT_ESCAPE
        if count == _SYNC_COUNT_ESCAPE:
            count, offset = read_uvarint(body, offset, "SYNC input count")
            if count < _SYNC_COUNT_ESCAPE:
                raise DecodeError(
                    f"SYNC escaped input count {count} fits the head byte"
                )
            if count > _MAX_SYNC_INPUTS:
                raise DecodeError(f"implausible SYNC input count {count}")
        delta, offset = read_svarint(body, offset, "SYNC ack")
        ack = first_frame + delta
        if count == 0:
            if head:
                raise DecodeError(f"SYNC pure ack with head flags {head:#04x}")
            _expect_end(body, offset, "SYNC pure ack")
            return cls(sender_site, session_id, ack, first_frame)
        if not head & _SYNC_MASK_IMPLIED:
            raise DecodeError("SYNC carries inputs without the implied-mask flag")
        stamp: Optional[Tuple[int, int]] = None
        if head & _SYNC_STAMPED:
            send_ticks, offset = read_uvarint(body, offset, "SYNC stamp send")
            capture_ticks, offset = read_uvarint(
                body, offset, "SYNC stamp capture"
            )
            stamp = (send_ticks, capture_ticks)
        cells_at = offset + ((count + 6) >> 3)
        if cells_at > len(body):
            raise DecodeError("truncated SYNC change map")
        changes = int.from_bytes(body[offset:cells_at], "little")
        if changes >> (count - 1):
            raise DecodeError("SYNC change map has non-zero pad bits")
        carried = 1 + bin(changes).count("1")
        rest = len(body) - cells_at
        # The width is implied too: whatever divides the cells evenly.
        width, spare = divmod(rest, carried)
        if spare:
            raise DecodeError(
                f"SYNC cells of {rest} bytes fit no width for "
                f"{carried} carried cells"
            )
        if width > _MAX_CELL_WIDTH:
            raise DecodeError(f"SYNC cell width {width} exceeds 64-bit inputs")
        packed = _expand_changes(body, cells_at, count, width, changes)
        message = cls(sender_site, session_id, ack, first_frame, packed, count, None, width)
        message._stamp = stamp
        return message

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sync):
            return NotImplemented
        return self.encode() == other.encode()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Sync(sender_site={self.sender_site}, session_id={self.session_id}, "
            f"ack={self.ack}, first_frame={self.first_frame}, "
            f"input_count={self._count})"
        )


@dataclass
class Ping(Message):
    """RTT probe; ``timestamp`` is the sender's local clock (microseconds)."""

    TYPE_ID: ClassVar[int] = 6
    BODY = (_u("seq"), _s("timestamp_us"))

    sender_site: int
    session_id: int
    seq: int
    timestamp_us: int


@dataclass
class Pong(Message):
    """Echo of a PING; carries the original timestamp back unchanged.

    Under FEATURE_TIMELINE the responder appends its *own* clock reading
    (``remote_timestamp_us``), turning the exchange into a full NTP-style
    probe: the pinger then holds t1 (its send time, echoed back), t2≈t3
    (the responder's clock) and t4 (the pong's arrival) and can estimate
    the cross-site clock offset, not just the round trip.  The field is
    optional-trailing: plain pongs encode exactly as before, and decoders
    accept both forms regardless of negotiation.
    """

    TYPE_ID: ClassVar[int] = 7
    BODY = (_u("seq"), _s("echo_timestamp_us"), _s("remote_timestamp_us", trailing=True))

    sender_site: int
    session_id: int
    seq: int
    echo_timestamp_us: int
    #: Responder's local clock when the pong was built (None when absent).
    remote_timestamp_us: Optional[int] = None


@dataclass
class StateRequest(Message):
    """Late joiner asks a donor site for a savestate (journal extension)."""

    TYPE_ID: ClassVar[int] = 8

    sender_site: int
    session_id: int


@dataclass
class StateSnapshot(Message):
    """A donor's savestate taken *after executing* ``frame``, plus backlog.

    The backlog carries, per site, the donor's buffered partial inputs for
    frames ``frame + 1 .. frame + len(inputs)``.  It closes the late-join
    gap: peers running ahead of the donor may already have pruned those
    frames, but the donor provably holds them (its own prune floor is its
    delivery pointer), and peers provably hold everything *beyond* what the
    donor has acknowledged.
    """

    TYPE_ID: ClassVar[int] = 9

    sender_site: int
    session_id: int
    frame: int
    state: bytes
    #: backlog[site] = donor's buffered inputs for frames frame+1, frame+2, …
    backlog: List[List[int]] = field(default_factory=list)
    #: CRC32 of ``state`` (optional-trailing: pre-integrity encoders omit
    #: it; receivers that find it verify before loading and re-request the
    #: transfer on mismatch instead of poisoning their machine).
    state_crc: Optional[int] = None

    def _encode_body(self) -> bytes:
        out = bytearray()
        append_svarint(out, self.frame)
        append_uvarint(out, len(self.state))
        out += self.state
        append_uvarint(out, len(self.backlog))
        for inputs in self.backlog:
            append_uvarint(out, len(inputs))
            for word in inputs:
                append_uvarint(out, word)
        if self.state_crc is not None:
            append_uvarint(out, self.state_crc)
        return bytes(out)

    @classmethod
    def _decode_body(
        cls, sender_site: int, session_id: int, body: bytes
    ) -> "StateSnapshot":
        frame, offset = read_svarint(body, 0, "STATE_SNAPSHOT frame")
        length, offset = read_uvarint(body, offset, "STATE_SNAPSHOT state length")
        if length > len(body) - offset:
            raise DecodeError(
                f"STATE_SNAPSHOT state truncated: header {length}, "
                f"got {len(body) - offset}"
            )
        state = body[offset : offset + length]
        offset += length
        num_sites, offset = read_uvarint(body, offset, "STATE_SNAPSHOT site count")
        if num_sites > 64:
            raise DecodeError(f"implausible backlog site count {num_sites}")
        backlog: List[List[int]] = []
        for __ in range(num_sites):
            count, offset = read_uvarint(body, offset, "STATE_SNAPSHOT backlog count")
            if count > len(body) - offset:
                raise DecodeError(
                    f"STATE_SNAPSHOT backlog count {count} overruns the body"
                )
            inputs = []
            for __ in range(count):
                word, offset = read_uvarint(body, offset, "STATE_SNAPSHOT input")
                inputs.append(word)
            backlog.append(inputs)
        state_crc: Optional[int] = None
        if offset < len(body):
            state_crc, offset = read_uvarint(body, offset, "STATE_SNAPSHOT crc")
        _expect_end(body, offset, "STATE_SNAPSHOT")
        return cls(sender_site, session_id, frame, state, backlog, state_crc)

    def crc_ok(self) -> bool:
        """Whether the carried state matches its CRC (absent CRC passes)."""
        if self.state_crc is None:
            return True
        return zlib.crc32(bytes(self.state)) == self.state_crc


@dataclass
class Resume(Message):
    """A disconnected site asks to rejoin its suspended session.

    Authentication is the session id (header) plus ``last_acked_frame`` —
    the last own frame the returning site saw the donor acknowledge.  A
    genuine former member cannot claim a frame beyond what the donor
    actually received from it, so the donor validates
    ``last_acked_frame <= LastRcvFrame[sender]``.  ``-1`` means "unknown"
    (a site that lost all state) and always passes.

    The optional-trailing ``resync_frame`` turns the message into a
    divergence-recovery request: "serve me your retained snapshot at the
    last digest-agreed frame" (see ``docs/failure-modes.md``).  It rides
    RESUME because resync *is* a resume — same authentication, same
    state-transfer path — just anchored at an agreed frame instead of the
    donor's current one.  Plain resumes encode exactly as before.
    """

    TYPE_ID: ClassVar[int] = 11
    BODY = (_s("last_acked_frame"), _s("resync_frame", trailing=True))

    sender_site: int
    session_id: int
    last_acked_frame: int = -1
    #: Last digest-agreed frame the requester wants the snapshot taken at
    #: (``None`` for an ordinary crash-recovery resume).
    resync_frame: Optional[int] = None


@dataclass
class StateDigest(Message):
    """Periodic (frame, state checksum) probe for live divergence detection.

    Both sites emit one per negotiated digest interval, coalesced into the
    same BATCH datagram as the input-carrying SYNC of that flush (the
    "piggyback": no extra datagram, ~6 bytes of member overhead).  The
    receiver compares against its own checksum for the same frame; any
    mismatch is a proven divergence at or before that frame, and the last
    matching digest frame is the recovery anchor the resync protocol
    snapshots at.  Gated by FEATURE_DIGEST — a pre-digest BATCH decoder
    rejects unknown member types, so the sender must know the peer
    understands it.
    """

    TYPE_ID: ClassVar[int] = 15
    BODY = (_s("frame"), _u("checksum", bound=0xFFFFFFFF))

    sender_site: int
    session_id: int
    frame: int = 0
    checksum: int = 0


@dataclass
class Bye(Message):
    """Graceful leave notification."""

    TYPE_ID: ClassVar[int] = 10

    sender_site: int
    session_id: int


def _batch_body(items: List[Tuple[int, bytes]]) -> bytes:
    """A BATCH body framing ``(type_id, body)`` members."""
    if not items:
        raise ValueError("cannot pack an empty BATCH")
    out = bytearray()
    append_uvarint(out, len(items))
    for type_id, body in items:
        if type_id == Batch.TYPE_ID:
            raise ValueError("BATCH cannot nest another BATCH")
        out.append(type_id)
        append_uvarint(out, len(body))
        out += body
    return bytes(out)


@dataclass
class Batch(Message):
    """Container coalescing several messages for one destination.

    One shared header (sender site + session id apply to every member),
    then ``uvarint count`` and per member a type-id byte, a uvarint body
    length and the member's body.  Nested batches are rejected on both
    sides — the container is strictly one level deep.
    """

    TYPE_ID: ClassVar[int] = 12

    sender_site: int
    session_id: int
    messages: List[Message] = field(default_factory=list)

    def _encode_body(self) -> bytes:
        return _batch_body([(m.TYPE_ID, m._encode_body()) for m in self.messages])

    @classmethod
    def _decode_body(cls, sender_site: int, session_id: int, body: bytes) -> "Batch":
        count, offset = read_uvarint(body, 0, "BATCH count")
        if count == 0:
            raise DecodeError("empty BATCH")
        if count > 256:
            raise DecodeError(f"implausible BATCH count {count}")
        messages: List[Message] = []
        for __ in range(count):
            if offset >= len(body):
                raise DecodeError("truncated BATCH member header")
            type_id = body[offset]
            offset += 1
            if type_id == cls.TYPE_ID:
                raise DecodeError("nested BATCH rejected")
            klass = _REGISTRY.get(type_id)
            if klass is None:
                raise DecodeError(f"unknown message type {type_id} in BATCH")
            length, offset = read_uvarint(body, offset, "BATCH member length")
            if length > len(body) - offset:
                raise DecodeError("BATCH member overruns the datagram")
            messages.append(
                klass._decode_body(sender_site, session_id, body[offset : offset + length])
            )
            offset += length
        _expect_end(body, offset, "BATCH")
        return cls(sender_site, session_id, messages)


#: Type ids 13 and 14 (the retired mode-switch handshake) stay unassigned:
#: a datagram carrying either is refused as an unknown type.
_REGISTRY: Dict[int, Type[Message]] = {
    klass.TYPE_ID: klass
    for klass in (
        Hello,
        Welcome,
        Start,
        StartAck,
        Sync,
        Ping,
        Pong,
        StateRequest,
        StateSnapshot,
        StateDigest,
        Bye,
        Resume,
        Batch,
    )
}


def encode_packet(type_id: int, sender_site: int, session_id: int, body: bytes) -> bytes:
    """Assemble one datagram from a pre-encoded message body."""
    out = bytearray(MAGIC)
    out.append((VERSION << 4) | type_id)
    append_uvarint(out, sender_site)
    append_uvarint(out, session_id)
    out += body
    return bytes(out)


def pack_batch(
    sender_site: int, session_id: int, items: List[Tuple[int, bytes]]
) -> bytes:
    """Assemble a BATCH datagram from ``(type_id, body)`` pairs.

    This is the zero-reparse path the engine's send coalescing uses: each
    member body is encoded exactly once and spliced in here without going
    through a :class:`Batch` instance.
    """
    return encode_packet(Batch.TYPE_ID, sender_site, session_id, _batch_body(items))


def decode(raw: bytes) -> Message:
    """Parse a datagram into a message, validating magic and version."""
    if len(raw) < _MIN_HEADER:
        raise DecodeError(f"datagram of {len(raw)} bytes is shorter than header")
    if raw[0] != 0x52 or raw[1] != 0x47:
        raise DecodeError(f"bad magic 0x{raw[0]:02x}{raw[1]:02x}")
    version_type = raw[2]
    if version_type >> 4 != VERSION:
        # v1's third byte is its version field, always exactly 0x01 — no
        # later version/type byte collides with it.
        version = 1 if version_type == 0x01 else version_type >> 4
        peer = "legacy peer; " if 0 < version < VERSION else ""
        raise DecodeError(
            f"unsupported wire version {version} ({peer}this build speaks "
            f"version {VERSION})"
        )
    type_id = version_type & 0x0F
    sender_site, offset = read_uvarint(raw, 3, "sender site")
    session_id, offset = read_uvarint(raw, offset, "session id")
    klass = _REGISTRY.get(type_id)
    if klass is None:
        raise DecodeError(f"unknown message type {type_id}")
    return klass._decode_body(sender_site, session_id, raw[offset:])


def decode_all(raw: bytes) -> List[Message]:
    """Parse a datagram, flattening a BATCH into its member messages."""
    message = decode(raw)
    if isinstance(message, Batch):
        return list(message.messages)
    return [message]
