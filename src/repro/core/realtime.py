"""Wall-clock driver over real UDP sockets.

This is the deployment shape of the paper's system: each site is a real
process (here: a thread for demo purposes) exchanging UDP datagrams.  The
handshake, the 20 ms outbound batching, RTT probes, Algorithm 1 and the
linger phase all come from the shared :class:`~repro.core.engine.SiteEngine`;
this driver only blocks on the socket's receive queue until the engine's
next timer deadline and moves bytes in and out.

The engine made the old two-thread design (a separate sender thread plus a
lock around the runtime) unnecessary: one thread services timers and
datagrams alike, so there is no cross-thread state to guard — and no
second thread whose exceptions could be silently swallowed.  Driver
failures are captured into :attr:`RealtimeVM.error` and re-raised from
:meth:`RealtimeVM.run`; *send* errors specifically are non-fatal (counted
in ``net.send_errors``, recovered by retransmission) because a transient
``OSError`` in the 20 ms pump must not kill an otherwise healthy session.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.driver import PresentationStatus, apply_effects, feed_datagrams
from repro.core.engine import Shutdown, SiteEngine
from repro.net.udp import UdpSocket


class RealtimeVM:
    """Runs one site's engine — any engine the caller built — in real time
    over a real UDP socket."""

    #: Cap on each blocking receive so ``stop()`` stays responsive even
    #: when the engine's next deadline is far away.
    MAX_BLOCK = 0.05

    def __init__(self, engine: SiteEngine, socket: UdpSocket) -> None:
        self.engine = engine
        self.runtime = engine.runtime
        self.socket = socket
        self.clock = socket.clock
        self.finished = False
        self.status = PresentationStatus()
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None
        self._send_failing = False

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Blocking: handshake, frame loop, linger.  Raises on failure."""
        engine = self.engine
        try:
            effects = engine.start(self.clock.now())
            while self._apply(effects):
                if self._stop.is_set():
                    effects = engine.handle(Shutdown(self.clock.now()))
                    continue
                deadline = engine.next_deadline()
                timeout = self.MAX_BLOCK
                if deadline is not None:
                    timeout = min(
                        max(deadline - self.clock.now(), 0.0), self.MAX_BLOCK
                    )
                datagram = self.socket.receive_blocking(timeout)
                pending = [] if datagram is None else [datagram]
                pending.extend(self.socket.receive_all())
                effects = feed_datagrams(engine, pending, self.clock.now())
        except BaseException as exc:
            self.error = exc
            raise
        finally:
            self._stop.set()

    def _apply(self, effects) -> bool:
        running = apply_effects(effects, self._send, status=self.status)
        if not running:
            self.status.on_finished(self.engine.termination)
        if self.engine.frames_complete:
            self.finished = True
        return running

    def _send(self, payload: bytes, destination: str) -> None:
        try:
            self.socket.send(payload, destination)
        except (OSError, RuntimeError) as exc:
            # A socket torn down by stop() mid-batch is expected.  Any
            # other failure (ENETUNREACH, EMSGSIZE burst, a dying NIC) is
            # survivable: count it and let the unacked-window
            # retransmission recover once sends work again.  A *persistent*
            # failure shows up as peer silence and rides the liveness path
            # (degraded → suspended → peer-lost) instead of crashing here.
            if self._stop.is_set():
                return
            self.runtime.metrics.send_errors.inc()
            if not self._send_failing:
                self._send_failing = True
                self.runtime.events.emit(
                    "error",
                    self.clock.now(),
                    self.runtime.frame,
                    error=f"send to {destination} failed: {exc!r}",
                )
            return
        self._send_failing = False

    def stop(self) -> None:
        self._stop.set()

    def snapshot(self) -> dict:
        """This site's telemetry registries plus liveness/error state."""
        snap = self.engine.snapshot()
        snap["finished"] = self.finished
        snap["presentation"] = self.status.as_dict()
        snap["error"] = repr(self.error) if self.error is not None else None
        return snap
