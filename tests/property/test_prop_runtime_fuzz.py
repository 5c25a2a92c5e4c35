"""Fuzzing the datagram ingress path.

A UDP port receives whatever the Internet sends it.  The runtime must
treat arbitrary and mutated datagrams as noise: never crash, never corrupt
protocol state it shouldn't."""

from hypothesis import given, settings, strategies as st

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.messages import Ping, StateSnapshot
from repro.core.engine import SitePeer, SiteRuntime
from repro.emulator.machine import create_game
from tests.wire import sync_of


def make_runtime():
    peers = [SitePeer(s, f"site{s}") for s in range(2)]
    return SiteRuntime(
        config=SyncConfig.paper_defaults(),
        site_no=0,
        assignment=InputAssignment.standard(2),
        machine=create_game("counter"),
        source=PadSource(RandomSource(1), 0),
        peers=peers,
        session_id=1,
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_random_bytes_never_crash(raw):
    runtime = make_runtime()
    replies = runtime.handle_datagram(raw, 0.0, 0.0)
    assert isinstance(replies, list)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["sync", "ping", "snapshot"]),
    st.integers(min_value=0, max_value=199),
    st.integers(min_value=0, max_value=255),
)
def test_bitflipped_real_messages_never_crash(kind, position, flip):
    if kind == "sync":
        raw = sync_of(1, 1, 5, 6, [0x100, 0x200, 0x300], 0xFF00).encode()
    elif kind == "ping":
        raw = Ping(1, 1, seq=0, timestamp_us=1000).encode()
    else:
        raw = StateSnapshot(1, 1, frame=10, state=b"abc", backlog=[[1], []]).encode()
    mutated = bytearray(raw)
    mutated[position % len(mutated)] ^= flip
    runtime = make_runtime()
    runtime.handle_datagram(bytes(mutated), 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # sender site (incl. bogus)
            st.integers(min_value=-100, max_value=100),  # ack
            st.integers(min_value=-50, max_value=200),
            st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=10),
        ),
        max_size=30,
    )
)
def test_adversarial_sync_messages_never_break_invariants(messages):
    """Whatever SYNC garbage arrives, the lockstep vectors stay ordered and
    the buffer floor stays below the delivery pointer."""
    runtime = make_runtime()
    lockstep = runtime.lockstep
    for sender, ack, first_frame, inputs in messages:
        # Packed against the sender's assignment, as a real peer packs.
        mask = lockstep.assignment.mask(sender) if sender < 2 else None
        message = sync_of(sender, 1, ack, first_frame, inputs, mask)
        # A conflicting input or an ack past our inputs is dropped like a
        # decode error; nothing reaches the caller.
        runtime.handle_datagram(message.encode(), 0.0, 0.0)
        assert lockstep.ibuf.floor <= max(0, lockstep.ibuf_pointer)
        # Vectors never go backwards below their initial values.
        assert all(v >= -1 for v in lockstep.last_rcv_frame)
