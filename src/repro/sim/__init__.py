"""Discrete-event simulation substrate.

The experiments in the paper run two gaming PCs against a Netem box for
3600 frames per network condition.  Re-running that sweep in wall-clock time
would take a minute per data point; instead the harness executes the exact
same (sans-IO) protocol code on a deterministic discrete-event simulator.

The substrate is intentionally small:

* :class:`~repro.sim.clock.Clock` — the time abstraction the event loop
  advances.
* :class:`~repro.sim.eventloop.EventLoop` — a heapq-based scheduler.
* :class:`~repro.sim.process.Mailbox` — an arrival-stamping FIFO whose
  ``listener`` callback is the one way a consumer is woken.
"""

from repro.sim.clock import Clock, SimClock
from repro.sim.eventloop import EventLoop, SimulationError
from repro.sim.process import Envelope, Mailbox, ProcessCrashed

__all__ = [
    "Clock",
    "SimClock",
    "EventLoop",
    "SimulationError",
    "Envelope",
    "Mailbox",
    "ProcessCrashed",
]
