"""The Machine contract — the paper's deterministic black box.

``S' = Transition(I, S)`` is all the sync layer ever does with a game.  A
:class:`Machine` packages that transition with the three capabilities the
distributed VM needs around it:

* :meth:`Machine.step` — execute exactly one frame under an input word,
* :meth:`Machine.checksum` — digest the *complete* state (consistency
  verification across sites),
* :meth:`Machine.save_state` / :meth:`Machine.load_state` — full-fidelity
  savestates (late joiners).

Determinism is a hard requirement: two machines constructed with the same
arguments and fed the same input sequence must produce identical checksums
at every frame.  The property-based test suite enforces this for every
registered game.
"""

from __future__ import annotations

import struct
import zlib
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, List, Optional


class MachineError(RuntimeError):
    """Raised for machine-level faults (bad ROM, corrupt savestate, ...)."""


#: Integrity framing shared by every delta blob: tag, CRC32 of the payload.
#: Deltas cross process and network boundaries (rollback restores, resync
#: state transfer), so a flipped bit must be *detected*, not silently
#: loaded — :func:`verify_delta` raises :class:`MachineError` on mismatch
#: and the caller re-requests instead of poisoning its machine.
_DELTA_CRC_HEADER = struct.Struct(">4sI")
_DELTA_CRC_TAG = b"CRCD"


def protect_delta(payload: bytes) -> bytes:
    """Wrap a delta payload in the CRC integrity frame."""
    return _DELTA_CRC_HEADER.pack(_DELTA_CRC_TAG, zlib.crc32(payload)) + payload


def verify_delta(blob: bytes, name: str = "machine") -> bytes:
    """Unwrap :func:`protect_delta` framing; raises on corruption."""
    header = _DELTA_CRC_HEADER.size
    if len(blob) < header or bytes(blob[:4]) != _DELTA_CRC_TAG:
        raise MachineError(
            f"{name}: unrecognized delta framing {bytes(blob[:4])!r}"
        )
    (__, expected) = _DELTA_CRC_HEADER.unpack_from(blob, 0)
    payload = bytes(blob[header:])
    if zlib.crc32(payload) != expected:
        raise MachineError(
            f"{name}: delta CRC mismatch "
            f"(expected 0x{expected:08x}, got 0x{zlib.crc32(payload):08x})"
        )
    return payload


class Machine(ABC):
    """A deterministic, frame-stepped game machine."""

    #: Human-readable game identifier (doubles as the lobby's game image id).
    name: str = "machine"
    #: How many player pads the game reads.
    num_players: int = 2

    def __init__(self) -> None:
        self._frame = 0

    # ------------------------------------------------------------------
    @property
    def frame(self) -> int:
        """Number of frames executed since reset."""
        return self._frame

    def step(self, input_word: int) -> None:
        """Advance one frame.  ``input_word`` carries all pads (bit string)."""
        if input_word < 0:
            raise MachineError(f"input word must be non-negative, got {input_word}")
        self._step(input_word)
        self._frame += 1

    @abstractmethod
    def _step(self, input_word: int) -> None:
        """Game-specific transition for one frame."""

    # ------------------------------------------------------------------
    @abstractmethod
    def checksum(self) -> int:
        """CRC32-based digest of the complete machine state."""

    @abstractmethod
    def save_state(self) -> bytes:
        """Serialize the complete state, including the frame counter."""

    @abstractmethod
    def load_state(self, blob: bytes) -> None:
        """Restore :meth:`save_state` output; raises MachineError on garbage."""

    # ------------------------------------------------------------------
    # Delta snapshots (optional fast path; see docs/performance.md).
    #
    # The default implementation is correct for any machine: a "delta" is
    # simply a tagged full savestate.  Machines with large state and a
    # natural page structure (the RC-16 console) override all four methods
    # so synchronizing two replicas copies only the pages either one has
    # touched since the last sync.
    # ------------------------------------------------------------------
    _DELTA_FULL_TAG = b"FULL"

    def state_mark(self) -> int:
        """Begin a dirty-tracking epoch; pass the result to
        :meth:`dirty_pages_since`.  Marks are independent of each other."""
        return 0

    def dirty_pages_since(self, mark: int) -> Optional[List[int]]:
        """Pages mutated since ``mark``, or ``None`` if this machine does
        not track pages (callers must then fall back to full snapshots)."""
        return None

    def save_delta(self, pages: Optional[Iterable[int]] = None) -> bytes:
        """Serialize enough state to bring a replica whose divergence is
        confined to ``pages`` back in sync (``None`` ⇒ everything).

        The result is CRC-framed end-to-end (:func:`protect_delta`);
        :meth:`apply_delta` rejects any bit-flip with
        :class:`MachineError` before touching machine state.  Machines
        override :meth:`_delta_payload`/:meth:`_apply_delta_payload`, not
        this pair, so the integrity frame is uniform across games.
        """
        return protect_delta(self._delta_payload(pages))

    def apply_delta(self, blob: bytes) -> None:
        """Apply :meth:`save_delta` output produced by an identical machine."""
        self._apply_delta_payload(verify_delta(blob, self.name))

    def _delta_payload(self, pages: Optional[Iterable[int]] = None) -> bytes:
        """Game-specific delta body; the default is a tagged full savestate."""
        return self._DELTA_FULL_TAG + self.save_state()

    def _apply_delta_payload(self, payload: bytes) -> None:
        """Apply a CRC-verified :meth:`_delta_payload` body."""
        if bytes(payload[:4]) != self._DELTA_FULL_TAG:
            raise MachineError(
                f"{self.name}: unrecognized delta header {bytes(payload[:4])!r}"
            )
        self.load_state(payload[4:])

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """Optional ASCII rendering for the examples; default: a status line."""
        return f"[{self.name} frame={self.frame} state=0x{self.checksum():08x}]"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_FACTORIES: Dict[str, Callable[[], Machine]] = {}


def register_game(name: str, factory: Callable[[], Machine]) -> None:
    """Register a game factory under ``name`` (used by harness and examples)."""
    if name in _FACTORIES:
        raise MachineError(f"game {name!r} already registered")
    _FACTORIES[name] = factory


def available_games() -> List[str]:
    """Names of all registered games (importing the games packages first)."""
    _ensure_builtin_games()
    return sorted(_FACTORIES)


def create_game(name: str) -> Machine:
    """Instantiate a registered game by name."""
    _ensure_builtin_games()
    if name not in _FACTORIES:
        raise MachineError(
            f"unknown game {name!r}; available: {', '.join(sorted(_FACTORIES))}"
        )
    return _FACTORIES[name]()


def _ensure_builtin_games() -> None:
    """Import the built-in game modules so they self-register."""
    from repro.emulator import games as _games  # noqa: F401
    from repro.emulator import roms as _roms  # noqa: F401
