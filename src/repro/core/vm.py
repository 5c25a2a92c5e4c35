"""Discrete-event driver for the sans-IO :class:`SiteEngine`.

The Algorithm 1 orchestration itself — handshake, send/ping pumps, the
frame loop and the linger phase — lives in :mod:`repro.core.engine`; this
module only adapts it to the discrete-event world.  A site is two
callbacks: the event loop calls one at the engine's next timer deadline,
the socket's mailbox calls the other when a datagram arrives first.
Either way the site wakes up once (``_main``) and parks again.
"""

from __future__ import annotations

from repro.core.driver import PresentationStatus, apply_effects, feed_datagrams
from repro.core.engine import Shutdown, SiteEngine
from repro.net.simnet import SimNetwork, SimSocket
from repro.sim.eventloop import EventLoop
from repro.sim.process import Task


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
        #: Seconds before the site boots (a late joiner's join time, a
        #: restarted site's resume time).
        self.start_delay = start_delay
        self.socket: SimSocket = network.socket(
            self.runtime.address_of[self.runtime.site_no]
        )
        self.finished = False
        self.status = PresentationStatus()
        #: Whether the site still runs and how it ended (``kill()`` is the
        #: chaos harness's crash, ``result()`` re-raises what a wake-up raised).
        self.process = Task(f"site{self.runtime.site_no}")
        self._stop_requested = False
        self._started = False
        #: Parked = waiting for the deadline ``_timer`` or a datagram.  What
        #: arrives while not parked (before boot) just queues in the mailbox.
        self._parked = False
        self._timer = 0

    # ------------------------------------------------------------------
    def start(self) -> Task:
        """Put this site on the event loop; it boots ``start_delay`` from now."""
        self.socket.mailbox.listener = self._on_datagram
        self.loop.call_later(0.0, self._boot)
        return self.process

    def _boot(self) -> None:
        if self.start_delay > 0 and not self.process.finished:
            self.loop.call_later(self.start_delay, self._wake)
        else:
            self._wake()

    def _on_datagram(self) -> None:
        """Mailbox callback: a parked site wakes up now, inside the delivery."""
        if self._parked:
            self.loop.cancel(self._timer)
            self._wake()

    def _wake(self) -> None:
        """Event-loop callback: the deadline this site parked on came."""
        self._parked = False
        process = self.process
        if process.finished:  # killed: pending wake-ups are no-ops
            return
        try:
            self._main()
        except BaseException as exc:  # Session.run surfaces it via result()
            process.finished = True
            process.error = exc

    def _main(self) -> None:
        """One wake-up, whatever caused it: what was received goes to the
        engine with the time, its effects are applied, the site parks."""
        engine = self.engine
        now = self.loop.clock.now()
        if not self._started:
            self._started = True
            effects = engine.start(now)
        elif self._stop_requested and not engine.done:
            effects = engine.handle(Shutdown(now))
        else:
            effects = feed_datagrams(engine, self.socket.receive_all(), now)
        running = apply_effects(effects, self.socket.send, status=self.status)
        if engine.frames_complete:
            self.finished = True
        if not running:
            self.status.on_finished(engine.termination)
            self.process.finished = True
        elif self.socket.mailbox:  # queued during the boot delay: handle now
            self._timer = self.loop.call_later(0.0, self._wake)
        else:
            # Until the engine's next deadline or a datagram, whichever is
            # first.  Exactly one call_later per wake-up: the loop breaks
            # ties by insertion order, so this is what fixes event order.
            deadline = engine.next_deadline()
            self._parked = True
            self._timer = self.loop.call_later(
                0.05 if deadline is None else deadline - now, self._wake
            )

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
