"""Property tests: delta snapshots reconstruct exactly what full saves do.

The delta protocol's correctness claim (docs/performance.md): if replica
B's divergence from replica A is confined to a page set P, then applying
``A.save_delta(pages=P)`` makes B bit-identical to A — regardless of how
either got where it is (stepping, direct memory pokes, MMIO writes,
restores).  Hypothesis drives arbitrary interleavings of those mutations
and checks ``save_state`` equality, which subsumes checksum equality.
"""

from hypothesis import given, settings, strategies as st

from repro.emulator.cpu import CpuFault
from repro.emulator.machine import MachineError, create_game, verify_delta
from repro.emulator.memory import MEMORY_SIZE

import pytest

#: The console's audio-trigger MMIO register (write-hooked page 0xFF).
AUDIO_TRIGGER = 0xFF13

step_op = st.tuples(st.just("step"), st.integers(0, 0xFFFF))
poke_op = st.tuples(
    st.just("poke"),
    st.tuples(st.integers(0, MEMORY_SIZE - 1), st.integers(0, 0xFF)),
)
word_op = st.tuples(
    st.just("word"),
    st.tuples(st.integers(0, MEMORY_SIZE - 1), st.integers(0, 0xFFFF)),
)
mmio_op = st.tuples(st.just("mmio"), st.integers(0, 0xFF))
operations = st.lists(
    st.one_of(step_op, poke_op, word_op, mmio_op), min_size=1, max_size=40
)


def apply_ops(machine, ops):
    for kind, arg in ops:
        if kind == "step":
            try:
                machine.step(arg)
            except CpuFault:
                pass  # a poke corrupted code/stack; the state is still valid
        elif kind == "poke":
            machine.memory.write_byte(*arg)
        elif kind == "word":
            machine.memory.write_word(*arg)
        else:  # mmio: hits the audio write hook on page 0xFF
            machine.memory.write_byte(AUDIO_TRIGGER, arg)


@settings(max_examples=30, deadline=None)
@given(ops=operations)
def test_delta_reconstructs_console_exactly(ops):
    """A dirty-page delta equals a full save/load, for any mutation mix."""
    ours = create_game("pong")
    twin = create_game("pong")
    twin.load_state(ours.save_state())
    mark = ours.state_mark()
    twin_mark = twin.state_mark()

    apply_ops(ours, ops)
    pages = set(ours.dirty_pages_since(mark)) | set(
        twin.dirty_pages_since(twin_mark)
    )
    twin.apply_delta(ours.save_delta(pages=pages))
    assert twin.save_state() == ours.save_state()
    assert twin.checksum() == ours.checksum()


@settings(max_examples=20, deadline=None)
@given(ops=operations, diverge=operations)
def test_delta_heals_a_diverged_twin(ops, diverge):
    """The union rule: pages *either* side touched are enough to resync."""
    ours = create_game("pong")
    twin = create_game("pong")
    twin.load_state(ours.save_state())
    mark = ours.state_mark()
    twin_mark = twin.state_mark()

    apply_ops(ours, ops)
    apply_ops(twin, diverge)  # speculative execution gone wrong
    pages = set(ours.dirty_pages_since(mark)) | set(
        twin.dirty_pages_since(twin_mark)
    )
    twin.apply_delta(ours.save_delta(pages=pages))
    assert twin.save_state() == ours.save_state()


@settings(max_examples=20, deadline=None)
@given(ops=operations)
def test_full_delta_equals_full_save(ops):
    """``save_delta(pages=None)`` is a complete snapshot in delta framing."""
    ours = create_game("pong")
    apply_ops(ours, ops)
    twin = create_game("pong")
    twin.apply_delta(ours.save_delta())
    assert twin.save_state() == ours.save_state()


@settings(max_examples=20, deadline=None)
@given(
    inputs=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=50),
    restore_at=st.integers(0, 49),
)
def test_delta_after_restore(inputs, restore_at):
    """``load_state`` marks everything dirty, so a delta after a restore
    still heals the twin (the rollback full-fallback interleaving)."""
    ours = create_game("pong")
    twin = create_game("pong")
    twin.load_state(ours.save_state())
    checkpoint = ours.save_state()
    mark = ours.state_mark()
    twin_mark = twin.state_mark()
    for frame, word in enumerate(inputs):
        ours.step(word)
        if frame == restore_at:
            ours.load_state(checkpoint)
    pages = set(ours.dirty_pages_since(mark)) | set(
        twin.dirty_pages_since(twin_mark)
    )
    twin.apply_delta(ours.save_delta(pages=pages))
    assert twin.save_state() == ours.save_state()


def test_one_frames_delta_is_a_fraction_of_a_savestate():
    """What a rollback restore saves: one steady-state pong frame dirties
    a few pages, so its delta is far smaller than a full savestate."""
    console = create_game("pong")
    for frame in range(10):
        console.step(frame)
    mark = console.state_mark()
    console.step(0)
    delta = console.save_delta(pages=console.dirty_pages_since(mark))
    assert len(delta) < len(console.save_state()) / 4


def test_a_python_game_tracks_no_pages():
    """brawler has no page tracking, so it reports no delta page set."""
    brawler = create_game("brawler")
    assert brawler.dirty_pages_since(brawler.state_mark()) is None


@settings(max_examples=15, deadline=None)
@given(words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=60))
def test_fallback_delta_roundtrip_for_python_games(words):
    """Machines without page tracking: delta degrades to a tagged full
    save, and the generic protocol still reconstructs exactly."""
    ours = create_game("brawler")
    for word in words:
        ours.step(word)
    assert ours.dirty_pages_since(ours.state_mark()) is None
    blob = ours.save_delta()
    assert blob[:4] == b"CRCD"
    assert verify_delta(blob)[:4] == b"FULL"
    twin = create_game("brawler")
    twin.apply_delta(blob)
    assert twin.save_state() == ours.save_state()


def test_apply_delta_rejects_garbage():
    console = create_game("pong")
    with pytest.raises(MachineError):
        console.apply_delta(b"NOPE" + b"\x00" * 64)
    with pytest.raises(MachineError):
        console.apply_delta(b"\x01\x02")
    brawler = create_game("brawler")
    with pytest.raises(MachineError):
        brawler.apply_delta(b"RCD1" + b"\x00" * 64)


@settings(max_examples=15, deadline=None)
@given(
    words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=30),
    bit=st.integers(0, 7),
    game=st.sampled_from(["pong", "brawler"]),
    data=st.data(),
)
def test_apply_delta_rejects_any_bit_flip(words, bit, game, data):
    """End-to-end integrity: a single flipped bit anywhere in a delta blob
    is rejected with MachineError, never silently loaded."""
    ours = create_game(game)
    for word in words:
        ours.step(word)
    blob = bytearray(ours.save_delta())
    index = data.draw(st.integers(0, len(blob) - 1))
    blob[index] ^= 1 << bit
    twin = create_game(game)
    with pytest.raises(MachineError):
        twin.apply_delta(bytes(blob))
