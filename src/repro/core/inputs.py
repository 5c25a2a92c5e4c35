"""Inputs as partitioned bit strings.

§3 of the paper: *"we view the input as a binary string, in which different
sites control different bits of the string.  Notation SET[k] maps site k to
the set of bits it controls.  For any two different sites j and k,
SET[j] ∩ SET[k] = {}."*

We represent an input word as a Python ``int`` and ``SET[k]`` as a bit mask.
The standard layout gives each player one byte — the classic 8-button
TV/arcade pad: UP, DOWN, LEFT, RIGHT, A, B, START, COIN.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Dict, Iterable, List, Sequence


class Buttons:
    """Bit positions of the 8-button pad (per player, before shifting)."""

    UP = 1 << 0
    DOWN = 1 << 1
    LEFT = 1 << 2
    RIGHT = 1 << 3
    A = 1 << 4
    B = 1 << 5
    START = 1 << 6
    COIN = 1 << 7

    ALL = 0xFF


#: Width of one player's slice of the input word.
BITS_PER_PLAYER = 8


def player_shift(player: int) -> int:
    """Bit offset of ``player``'s byte within the input word."""
    if player < 0:
        raise ValueError(f"player must be >= 0, got {player}")
    return player * BITS_PER_PLAYER


def player_mask(player: int) -> int:
    """``SET[player]`` for the standard one-byte-per-player layout."""
    return Buttons.ALL << player_shift(player)


def pack_buttons(player: int, buttons: int) -> int:
    """Place a pad byte into ``player``'s slice of the input word."""
    if buttons & ~Buttons.ALL:
        raise ValueError(f"buttons 0x{buttons:x} outside the 8-button pad")
    return buttons << player_shift(player)


def unpack_buttons(word: int, player: int) -> int:
    """Extract ``player``'s pad byte from an input word."""
    return (word >> player_shift(player)) & Buttons.ALL


class InputAssignment:
    """The ``SET[k]`` partition for a session.

    Bits claimed by no site are ``SET[-1]`` in the paper and are masked out
    of every merged input.
    """

    def __init__(self, masks: Sequence[int]) -> None:
        masks = list(masks)
        for i, a in enumerate(masks):
            for j in range(i + 1, len(masks)):
                if a & masks[j]:
                    raise ValueError(
                        f"SET[{i}] and SET[{j}] overlap: 0x{a & masks[j]:x}"
                    )
        self._masks = masks

    @classmethod
    def standard(cls, num_sites: int, players_per_site: int = 1) -> "InputAssignment":
        """One pad byte per player, ``players_per_site`` players per site."""
        masks: List[int] = []
        player = 0
        for __ in range(num_sites):
            mask = 0
            for __p in range(players_per_site):
                mask |= player_mask(player)
                player += 1
            masks.append(mask)
        return cls(masks)

    @classmethod
    def with_observers(cls, num_players: int, num_observers: int) -> "InputAssignment":
        """Players get pad bytes; observers control no bits (mask 0)."""
        masks = [player_mask(p) for p in range(num_players)]
        masks.extend([0] * num_observers)
        return cls(masks)

    def __len__(self) -> int:
        return len(self._masks)

    def mask(self, site: int) -> int:
        """``SET[site]``."""
        return self._masks[site]

    def controlled_mask(self) -> int:
        """Union of all sites' bits (everything not in ``SET[-1]``)."""
        combined = 0
        for mask in self._masks:
            combined |= mask
        return combined

    def gating_sites(self) -> List[int]:
        """Sites whose input must arrive before a frame may be delivered.

        Observers control no bits, so they never gate delivery.
        """
        return [site for site, mask in enumerate(self._masks) if mask]

    def restrict(self, word: int, site: int) -> int:
        """Keep only ``site``'s bits of ``word``."""
        return word & self._masks[site]

    def merge(self, partials: Dict[int, int]) -> int:
        """Combine per-site partial inputs into one word.

        Bits outside each contributor's mask are discarded, implementing the
        paper's "bits not controlled by any site are ignored".
        """
        word = 0
        for site, partial in partials.items():
            word |= partial & self._masks[site]
        return word


class InputSource(ABC):
    """Produces the local player's pad state for each frame.

    Sources must be deterministic functions of (their construction
    arguments, the frame number): experiments replay them on both the
    site under test and the reference site.
    """

    @abstractmethod
    def get(self, frame: int) -> int:
        """Return the pad byte (or full mask-local bits) for ``frame``."""


class IdleSource(InputSource):
    """A player who never touches the pad."""

    def get(self, frame: int) -> int:
        return 0


class ScriptedSource(InputSource):
    """Inputs from an explicit ``{frame: buttons}`` script.

    Frames not in the script repeat the most recent scripted value when
    ``hold`` is true (useful for held directions), else produce 0.
    """

    def __init__(self, script: Dict[int, int], hold: bool = False) -> None:
        self._script = dict(script)
        self._hold = hold
        self._frames = sorted(self._script)

    def get(self, frame: int) -> int:
        if frame in self._script:
            return self._script[frame]
        if not self._hold:
            return 0
        earlier = bisect_left(self._frames, frame)
        return self._script[self._frames[earlier - 1]] if earlier else 0


class RandomSource(InputSource):
    """A deterministic pseudo-random button masher.

    Each button independently toggles with probability ``toggle_p`` per
    frame, producing runs of presses-and-holds that resemble real pad input
    more closely than per-frame independent noise.  The sequence is fully
    determined by ``seed``: frame ``n``'s toggles come from a generator
    re-seeded with (seed, n), never from RNG state carried between frames,
    so lookups are random access and replay-safe.
    """

    def __init__(self, seed: int, toggle_p: float = 0.08, mask: int = Buttons.ALL) -> None:
        if not 0.0 <= toggle_p <= 1.0:
            raise ValueError(f"toggle_p must be in [0,1], got {toggle_p}")
        self._seed = seed
        self._toggle_p = toggle_p
        self._mask = mask
        #: Words of frames ``0..len-1``: reads only ever extend this
        #: contiguous frontier, so the nearest ancestor is the last entry.
        self._words: List[int] = []
        self._rng = random.Random()

    def _toggles(self, frame: int) -> int:
        rng = self._rng
        rng.seed((self._seed << 20) ^ frame)
        toggles = 0
        for bit in range(BITS_PER_PLAYER):
            if rng.random() < self._toggle_p:
                toggles |= 1 << bit
        return toggles & self._mask

    def get(self, frame: int) -> int:
        if frame < 0:
            return 0
        words = self._words
        while len(words) <= frame:
            previous = words[-1] if words else 0
            words.append(previous ^ self._toggles(len(words)))
        return words[frame]


class TapSource(InputSource):
    """Arcade-structured pad input: held directions plus short button taps.

    :class:`RandomSource` toggles every button independently, which makes
    all predictors look alike (nothing is learnable).  Real pad traffic has
    structure — a direction is *held* for many frames while action buttons
    are *tapped* for a frame or two — and that structure is exactly what
    the heuristic input predictor exploits.  This source generates it
    deterministically: one of the four directions is held for
    ``direction_run`` frames (chosen per run by seeded hash, sometimes
    none), and the A button is pressed for ``tap_hold`` frames out of
    every ``tap_period`` (phase offset by the seed so two sites don't tap
    in sync).  Random access and replay-safe, like every source.
    """

    _DIRECTIONS = (0, Buttons.UP, Buttons.DOWN, Buttons.LEFT, Buttons.RIGHT)

    def __init__(
        self,
        seed: int,
        tap_period: int = 9,
        tap_hold: int = 2,
        direction_run: int = 48,
    ) -> None:
        if tap_period <= 0 or not 0 <= tap_hold <= tap_period:
            raise ValueError(
                f"need 0 <= tap_hold <= tap_period, got {tap_hold}/{tap_period}"
            )
        if direction_run <= 0:
            raise ValueError(f"direction_run must be > 0, got {direction_run}")
        self._seed = seed
        self._tap_period = tap_period
        self._tap_hold = tap_hold
        self._direction_run = direction_run

    def get(self, frame: int) -> int:
        if frame < 0:
            return 0
        run = frame // self._direction_run
        rng = random.Random((self._seed << 24) ^ run)
        buttons = rng.choice(self._DIRECTIONS)
        if (frame + self._seed) % self._tap_period < self._tap_hold:
            buttons |= Buttons.A
        return buttons


class PadSource(InputSource):
    """Adapts a pad-byte source into full-input-word bit positions.

    Sources like :class:`RandomSource` or :class:`ScriptedSource` speak in
    pad bytes (bits 0–7); a site controlling player ``k`` must place those
    bits at ``SET[k]``'s offset before buffering.
    """

    def __init__(self, inner: InputSource, player: int) -> None:
        self._inner = inner
        self._player = player

    def get(self, frame: int) -> int:
        return pack_buttons(self._player, self._inner.get(frame) & Buttons.ALL)


class RecordedSource(InputSource):
    """Replays a recorded input trace; frames past the end return 0."""

    def __init__(self, trace: Iterable[int]) -> None:
        self._trace = list(trace)

    def __len__(self) -> int:
        return len(self._trace)

    def get(self, frame: int) -> int:
        if 0 <= frame < len(self._trace):
            return self._trace[frame]
        return 0
