"""Heapq-based discrete-event loop.

The loop owns a :class:`~repro.sim.clock.SimClock` and a priority queue of
``(time, sequence, callback)`` entries.  Ties are broken by insertion order
(the monotonically increasing sequence number), which keeps runs fully
deterministic without relying on callback identity.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.sim.clock import SimClock


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an unrecoverable state."""


class EventLoop:
    """A deterministic discrete-event scheduler.

    Usage::

        loop = EventLoop()
        loop.call_at(0.5, lambda: print("half a second"))
        loop.run(until=10.0)
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._cancelled: set = set()
        self._running = False
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, when: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at absolute time ``when``.

        Returns a handle usable with :meth:`cancel`.  Scheduling in the past
        is an error — allowing it would silently reorder causality.
        """
        if when < self.clock.now():
            raise SimulationError(
                f"cannot schedule at {when!r}: clock already at {self.clock.now()!r}"
            )
        handle = next(self._sequence)
        heapq.heappush(self._queue, (when, handle, callback))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` ``delay`` seconds from now (clamped at 0,
        so unlike :meth:`call_at` it cannot land in the past)."""
        handle = next(self._sequence)
        heapq.heappush(
            self._queue, (self.clock.now() + max(0.0, delay), handle, callback)
        )
        return handle

    def cancel(self, handle: int) -> None:
        """Cancel a previously scheduled callback.

        Cancellation is lazy: the entry stays in the heap and is skipped when
        popped, which keeps cancel O(1).
        """
        self._cancelled.add(handle)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for tests and diagnostics)."""
        return self._events_processed

    def is_empty(self) -> bool:
        """True when no live (non-cancelled) events remain."""
        return all(handle in self._cancelled for __, handle, __cb in self._queue)

    def _run(self, until: Optional[float], limit: int) -> int:
        """Pop and run, in place, up to ``limit`` live events due by
        ``until``; returns how many ran.  The one pop loop: a session is
        ~20 events per frame, so nothing here is a call per event."""
        queue, cancelled, advance = self._queue, self._cancelled, self.clock.advance
        processed = 0
        while queue and processed < limit:
            when, handle, callback = queue[0]
            if handle in cancelled:
                heapq.heappop(queue)
                cancelled.discard(handle)
                continue
            if until is not None and when > until:
                break
            heapq.heappop(queue)
            advance(when)
            self._events_processed += 1
            callback()
            processed += 1
        return processed

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty.
        """
        return self._run(None, 1) == 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> None:
        """Run events until the queue drains or the horizon is reached.

        ``until`` is an absolute-time horizon: events scheduled strictly after
        it are left in the queue and the clock is advanced to the horizon.
        ``max_events`` is a runaway-loop guard.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            if self._run(until, max_events) >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely a livelock"
                )
            if until is not None and until > self.clock.now():
                self.clock.advance(until)
        finally:
            self._running = False
