"""Mailboxes and task handles for callback consumers on the event loop.

Simulated endpoints communicate through :class:`Mailbox` objects.  A
mailbox stamps each message with its arrival time — the protocol layer
needs arrival times (``MasterRcvTime`` in Algorithm 4) even when the
message is consumed later — and calls its consumer's ``listener`` on every
delivery.  A :class:`Task` records how such a consumer ended.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

from repro.sim.eventloop import EventLoop, SimulationError


class ProcessCrashed(SimulationError):
    """Raised by :meth:`Task.result` when the task ended with an error."""


@dataclass(frozen=True)
class Envelope:
    """A delivered message plus its arrival time."""

    payload: Any
    arrived_at: float


class Mailbox:
    """An arrival-time-stamping FIFO with one consumer.

    ``deliver`` may be called from any context (e.g. a network link's
    delivery callback); the consumer's ``listener`` runs inside it, at the
    current instant, preserving determinism.
    """

    def __init__(self, loop: EventLoop, name: str = "mailbox") -> None:
        self._loop = loop
        self.name = name
        self._queue: Deque[Envelope] = deque()
        #: Called on every delivery; the consumer (a site's driver, the
        #: time server) sets it once.
        self.listener: Optional[Callable[[], None]] = None

    def __len__(self) -> int:
        return len(self._queue)

    def deliver(self, payload: Any) -> None:
        """Enqueue ``payload``, stamping the current simulated time."""
        self._queue.append(Envelope(payload, self._loop.clock.now()))
        if self.listener is not None:
            self.listener()

    def poll(self) -> Optional[Envelope]:
        """Non-blocking receive: pop the oldest envelope or return None."""
        if self._queue:
            return self._queue.popleft()
        return None

    def drain(self) -> List[Envelope]:
        """Pop and return all queued envelopes (possibly empty)."""
        items = list(self._queue)
        self._queue.clear()
        return items


class Task:
    """How something running on the event loop ended; a callback driver
    (``DistributedVM``) fills in its own."""

    def __init__(self, name: str = "task") -> None:
        self.name = name
        self.finished = False
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def kill(self) -> None:
        """Terminate abruptly (a simulated crash): whoever runs the task
        looks at :attr:`finished` before each wake-up.  ``result()`` then
        returns None, not raises: it did not crash, it was crashed."""
        self.finished = True

    def result(self) -> Any:
        """The value it ended with; raises if it crashed or is live."""
        if not self.finished:
            raise SimulationError(f"process {self.name!r} still running")
        if self.error is not None:
            raise ProcessCrashed(
                f"process {self.name!r} crashed: {self.error!r}"
            ) from self.error
        return self.value
