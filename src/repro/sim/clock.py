"""Time sources.

Simulator code asks a :class:`Clock` for the current time instead of
calling :func:`time.monotonic` directly; the discrete-event loop advances
it.  (The real-UDP driver reads its asyncio loop's ``time()`` and hands the
engine plain floats.)  Times are floats in **seconds**, matching the
paper's ``get_current_time()`` primitive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Clock(ABC):
    """Abstract time source of the simulator."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""


class SimClock(Clock):
    """Virtual clock advanced by the discrete-event loop.

    Only the event loop should call :meth:`advance`; protocol code treats the
    clock as read-only.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, to: float) -> None:
        """Move the clock forward to ``to``.

        Raises :class:`ValueError` if ``to`` lies in the past: a discrete
        event simulator must never travel backwards, and catching that here
        localizes scheduler bugs.
        """
        if to < self._now:
            raise ValueError(
                f"clock cannot go backwards: now={self._now!r}, requested={to!r}"
            )
        self._now = to
