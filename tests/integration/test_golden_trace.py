"""Golden-trace determinism: the fast path changes nothing observable.

The determinism contract behind every optimization in this repo (block
translation, page-routed MMIO, incremental checksums) is that a machine's
*observable state sequence* — ``save_state()`` and ``checksum()`` — is
bit-identical to what the unoptimized execution produces.  For the RC-16
consoles the retained reference interpreter is the golden producer and
the block-translation layer (which single-steps what no region covers
through that same reference) is compared against it; for pure-Python
games two independently constructed instances must agree (catching any
shared-mutable-state or caching bug).

1000 frames per game with a mixed input schedule, compared every 100
frames and at the end — long enough for pong rallies, brawler rounds and
shooter waves to exercise the interesting state space.
"""

import pytest

from repro.emulator.machine import create_game

FRAMES = 1000
COMPARE_EVERY = 100

#: (game, whether the game is an RC-16 console with multiple interpreters).
GAMES = [
    ("pong", True),
    ("tankduel", True),
    ("smc", True),
    ("brawler", False),
    ("shooter", False),
    ("tankduel-py", False),
    ("counter", False),
]


def input_schedule(frame: int) -> int:
    """A deterministic, button-rich schedule (both pads, all bits over time)."""
    return (frame * 2654435761) & 0xFFFF


def make_trio(name: str, is_console: bool):
    """The golden machine plus every follower it must stay identical to."""
    if is_console:
        golden = create_game(name)
        golden.interpreter = "reference"
        block = create_game(name)
        assert block.interpreter == "block"  # the default path
        return golden, [("block", block)]
    return create_game(name), [("twin", create_game(name))]


@pytest.mark.parametrize("name,is_console", GAMES)
def test_golden_trace(name, is_console):
    golden, followers = make_trio(name, is_console)
    for frame in range(FRAMES):
        word = input_schedule(frame)
        golden.step(word)
        for __, machine in followers:
            machine.step(word)
        if frame % COMPARE_EVERY == 0 or frame == FRAMES - 1:
            state = golden.save_state()
            checksum = golden.checksum()
            for label, machine in followers:
                assert state == machine.save_state(), (
                    f"{name}: {label} state diverged at frame {frame}"
                )
                assert checksum == machine.checksum(), (
                    f"{name}: {label} checksum diverged at frame {frame}"
                )


def test_block_checksum_matches_reference_every_frame():
    """Between the golden trace's comparisons: a block-tier drift on pong
    is caught on the frame it happens, not up to 100 frames later."""
    golden, [(__, block)] = make_trio("pong", is_console=True)
    for frame in range(60):
        word = input_schedule(frame)
        golden.step(word)
        block.step(word)
        assert golden.checksum() == block.checksum(), f"diverged at frame {frame}"


@pytest.mark.parametrize("name", ["pong", "tankduel", "smc"])
@pytest.mark.parametrize("interpreter", ["block"])
def test_fast_interpreters_survive_save_load_roundtrip(name, interpreter):
    """Mid-run save/load on the optimized paths matches the reference trace."""
    golden = create_game(name)
    golden.interpreter = "reference"
    fast = create_game(name)
    fast.interpreter = interpreter
    for frame in range(300):
        word = input_schedule(frame)
        golden.step(word)
        fast.step(word)
        if frame == 150:
            fast.load_state(fast.save_state())
    assert golden.save_state() == fast.save_state()
