"""Discrete-event driver for the sans-IO :class:`SiteEngine`.

The Algorithm 1 orchestration itself — handshake, send/ping pumps, the
frame loop and the linger phase — lives in :mod:`repro.core.engine`; this
module only adapts it to the discrete-event world: one simulator process
per site that sleeps until the engine's next timer deadline or an incoming
datagram, whichever is first.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.driver import PresentationStatus, apply_effects, feed_datagrams
from repro.core.engine import Shutdown, SiteEngine
from repro.net.simnet import SimNetwork, SimSocket
from repro.sim.eventloop import EventLoop
from repro.sim.process import Process, Sleep, WaitMessage, spawn


class DistributedVM:
    """Runs one :class:`SiteEngine` — any engine the caller built — to
    completion on the event loop."""

    def __init__(
        self,
        loop: EventLoop,
        network: SimNetwork,
        engine: SiteEngine,
        start_delay: float = 0.0,
    ) -> None:
        self.loop = loop
        self.engine = engine
        self.runtime = engine.runtime
        self.max_frames = engine.max_frames
        #: Seconds before the site boots (a late joiner's join time, a
        #: restarted site's resume time).
        self.start_delay = start_delay
        self.socket: SimSocket = network.socket(
            self.runtime.address_of[self.runtime.site_no]
        )
        self.finished = False
        self.status = PresentationStatus()
        self.process: Optional[Process] = None
        self._stop_requested = False

    # ------------------------------------------------------------------
    def start(self) -> Process:
        """Spawn this site's process on the event loop."""
        name = f"site{self.runtime.site_no}"
        self.process = spawn(self.loop, self._main(), name=name)
        return self.process

    def _main(self) -> Generator:
        if self.start_delay > 0:
            yield Sleep(self.start_delay)
        engine = self.engine
        effects = engine.start(self._now())
        while self._apply(effects):
            deadline = engine.next_deadline()
            timeout = 0.05
            if deadline is not None:
                timeout = max(0.0, deadline - self._now())
            envelope = yield WaitMessage(self.socket.mailbox, timeout=timeout)
            if self._stop_requested and not engine.done:
                effects = engine.handle(Shutdown(self._now()))
                continue
            pending = [] if envelope is None else [envelope.payload]
            pending.extend(self.socket.receive_all())
            effects = feed_datagrams(engine, pending, self._now())

    def _apply(self, effects) -> bool:
        running = apply_effects(effects, self.socket.send, status=self.status)
        if not running:
            self.status.on_finished(self.engine.termination)
        if self.engine.frames_complete:
            self.finished = True
        return running

    def _now(self) -> float:
        return self.loop.clock.now()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the site to wind down at its next wakeup."""
        self._stop_requested = True

    def snapshot(self) -> dict:
        """This site's telemetry registries plus liveness as one dict."""
        snap = self.engine.snapshot()
        snap["finished"] = self.finished
        snap["presentation"] = self.status.as_dict()
        return snap
