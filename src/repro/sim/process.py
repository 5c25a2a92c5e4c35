"""Generator-based cooperative processes for the event loop.

A *process* is a Python generator that yields command objects:

* ``yield Sleep(dt)`` — resume after ``dt`` simulated seconds; the resumed
  value is ``None``.
* ``yield WaitMessage(mailbox, timeout=None)`` — resume when the mailbox has
  a message (resumed with the :class:`Envelope`) or when the timeout expires
  (resumed with ``None``).
* ``yield Spawn(generator)`` — start a child process; the resumed value is
  its :class:`Process` handle.

Processes communicate through :class:`Mailbox` objects.  A mailbox stamps
each message with its arrival time — the protocol layer needs arrival times
(``MasterRcvTime`` in Algorithm 4) even when the message is consumed later.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.sim.eventloop import EventLoop, SimulationError


class ProcessCrashed(SimulationError):
    """Raised by :meth:`Process.result` when the generator raised."""


@dataclass(frozen=True)
class Sleep:
    """Command: suspend the process for ``duration`` seconds."""

    duration: float


@dataclass(frozen=True)
class WaitMessage:
    """Command: suspend until ``mailbox`` is non-empty or ``timeout`` passes."""

    mailbox: "Mailbox"
    timeout: Optional[float] = None


@dataclass(frozen=True)
class Spawn:
    """Command: start a child process from ``generator``."""

    generator: Generator[Any, Any, Any]
    name: str = "child"


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
        #: Called on every delivery.  A callback consumer (a site's driver,
        #: the time server) sets it once; a :class:`Process` blocked in
        #: ``WaitMessage`` sets it for the length of the wait.
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
    """How something running on the event loop ended.  :class:`Process`
    fills one in for its generator; a callback driver (``DistributedVM``)
    fills in its own."""

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


class Process(Task):
    """Drives one generator on the event loop."""

    def __init__(
        self,
        loop: EventLoop,
        generator: Generator[Any, Any, Any],
        name: str = "proc",
    ) -> None:
        super().__init__(name)
        self.loop = loop
        self._generator = generator
        # A token invalidating stale wakeups: each suspension bumps it, and a
        # wakeup scheduled for an earlier suspension becomes a no-op.
        self._wait_token = 0

    # ------------------------------------------------------------------
    def start(self) -> "Process":
        """Schedule the first resumption at the current instant."""
        self.loop.call_later(0.0, lambda: self._resume(None))
        return self

    def kill(self) -> None:
        """No cleanup runs in the process's own code path beyond ``finally``
        blocks (``GeneratorExit``); pending wakeups become no-ops via the
        wait token."""
        if not self.finished:
            self.finished = True
            self._wait_token += 1
            self._generator.close()

    def _resume(self, value: Any) -> None:
        if self.finished:
            return
        try:
            command = self._generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.value = stop.value
            return
        except BaseException as exc:  # surface via result()
            self.finished = True
            self.error = exc
            return
        try:
            self._dispatch(command)
        except BaseException as exc:  # bad command object
            self.finished = True
            self.error = exc

    def _dispatch(self, command: Any) -> None:
        self._wait_token += 1
        token = self._wait_token

        if isinstance(command, Sleep):
            self.loop.call_later(command.duration, lambda: self._resume(None))
            return

        if isinstance(command, Spawn):
            child = Process(self.loop, command.generator, command.name).start()
            # Resume immediately (same instant) with the child handle.
            self.loop.call_later(0.0, lambda: self._resume(child))
            return

        if isinstance(command, WaitMessage):
            mailbox = command.mailbox
            envelope = mailbox.poll()
            if envelope is not None:
                self.loop.call_later(0.0, lambda: self._resume(envelope))
                return

            timeout_handle: Optional[int] = None

            def wake(with_message: bool) -> None:
                if token != self._wait_token or self.finished:
                    return
                mailbox.listener = None
                if with_message and timeout_handle is not None:
                    self.loop.cancel(timeout_handle)
                # The message that woke us cannot have been polled by
                # anybody else (single consumer per mailbox).
                self._resume(mailbox.poll() if with_message else None)

            mailbox.listener = lambda: wake(True)
            if command.timeout is not None:
                timeout_handle = self.loop.call_later(
                    command.timeout, lambda: wake(False)
                )
            return

        raise SimulationError(
            f"process {self.name!r} yielded unknown command {command!r}"
        )


def spawn(
    loop: EventLoop, generator: Generator[Any, Any, Any], name: str = "proc"
) -> Process:
    """Convenience: create and start a :class:`Process`."""
    return Process(loop, generator, name).start()
