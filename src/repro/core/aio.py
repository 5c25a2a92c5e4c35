"""Asyncio driver — many lockstep sessions multiplexed on one process.

The ROADMAP's lobby-server shape: a site is not a thread but two
callbacks, so one event loop hosts every site of every concurrent session.
Each :class:`AioSite` couples a :class:`~repro.core.engine.SiteEngine` to
an :class:`~repro.net.udp.AsyncUdpEndpoint` and does nothing but

    park until (next engine deadline) or (datagram arrives)
    feed the engine, apply its effects

— the endpoint calls it inside a datagram's arrival or when its timer
reaches the (absolute) deadline, and either way one plain function
runs in that same loop iteration: the same ~30-line shell as the simulator
driver, proving the sans-IO seam — the protocol neither knows nor cares
which of the two runtimes is underneath.  Wire concerns (the codec and
batch coalescing) all live behind the engine's
outbox; this driver only ever sees finished datagrams.

:func:`host_sessions` wires N independent two-site sessions (distinct
UDP ports, distinct session ids) onto the running loop and drives them
all to completion concurrently.  Because merged input words depend only
on the input sources and the configured lag — never on wall-clock timing —
the per-frame checksums of a hosted session equal those of the simulator
for the same seeds (:func:`simulator_checksums` computes the twin).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import SyncConfig
from repro.core.driver import PresentationStatus, apply_effects, feed_datagrams
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime, Shutdown
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.net.udp import AsyncUdpEndpoint
from repro.obs.registry import aggregate_snapshots, to_prometheus


class AioSite:
    """Drives one engine — any engine the caller built — on the running
    event loop; :meth:`run` is the awaitable that spans its wake-ups."""

    def __init__(self, engine: SiteEngine, endpoint: AsyncUdpEndpoint) -> None:
        self.engine = engine
        self.runtime = engine.runtime
        self.endpoint = endpoint
        self.finished = False
        self.status = PresentationStatus()
        #: Set when :meth:`run` died; the host process stays up and the
        #: snapshot API reports the failure instead.
        self.error: Optional[BaseException] = None
        self._stop_requested = False
        self._send_failing = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Resolved by the wake-up that sees ``Finished``, failed with
        #: whatever a wake-up raised; :meth:`run` awaits it.
        self._done: Optional[asyncio.Future] = None
        # ICMP errors (port unreachable after a peer crash) surface through
        # the endpoint's error_received; count them instead of dropping.
        endpoint.on_transport_error = self._on_transport_error

    async def run(self) -> None:
        self._loop = loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        self._apply(self.engine.start(loop.time()))
        await self._done

    def _main(self) -> None:
        """One wake-up, whatever caused it: what was received goes to the
        engine with the time, its effects are applied, the site parks."""
        if self._done.done():  # run() failed or was cancelled: stay down
            return
        engine = self.engine
        now = self._loop.time()
        try:
            if self._stop_requested and not engine.done:
                effects = engine.handle(Shutdown(now))
            else:
                effects = feed_datagrams(engine, self.endpoint.receive_all(), now)
            self._apply(effects)
        except Exception as exc:  # SessionHost isolates it to this session
            self._done.set_exception(exc)

    def request_stop(self) -> None:
        """Ask the site to wind down at its next wakeup (and wake it — on
        the next loop iteration, never inside the caller's own wake-up)."""
        self._stop_requested = True
        if self._loop is not None:
            self._loop.call_soon(self.endpoint.wake)

    def snapshot(self) -> dict:
        """This site's registries plus liveness/error state as one dict."""
        snap = self.engine.snapshot()
        snap["finished"] = self.finished
        snap["presentation"] = self.status.as_dict()
        snap["error"] = repr(self.error) if self.error is not None else None
        return snap

    def _apply(self, effects) -> None:
        """Apply one batch of effects, then park until the engine's next
        deadline or a datagram — or resolve :meth:`run` on ``Finished``."""
        running = apply_effects(effects, self._send, status=self.status)
        if self.engine.frames_complete:
            self.finished = True
        if running:
            self.endpoint.wait(self.engine.next_deadline(), self._main)
        else:
            self.status.on_finished(self.engine.termination)
            self._done.set_result(None)

    def _send(self, payload: bytes, destination: str) -> None:
        try:
            self.endpoint.send(payload, destination)
        except (OSError, RuntimeError, ValueError) as exc:
            # A failed send is a lost datagram (ENETUNREACH, a dying NIC,
            # an endpoint closed mid-batch, a savestate over MAX_DATAGRAM):
            # count it and let retransmission recover once sends work
            # again.  A *persistent* failure shows up as peer silence and
            # ends in a named termination (handshake-timeout, peer-lost,
            # desync), never a crash here.  One trace record per streak.
            self.runtime.metrics.send_errors.inc()
            if not self._send_failing:
                self._send_failing = True
                self.runtime.events.emit(
                    "error",
                    asyncio.get_running_loop().time(),
                    self.runtime.frame,
                    error=f"send to {destination} failed: {exc!r}",
                )
            return
        self._send_failing = False

    def _on_transport_error(self, exc: OSError) -> None:
        self.runtime.metrics.send_errors.inc()


class SessionHost:
    """The sessions one process hosts, with a live introspection surface.

    :meth:`run` drives every site to completion with per-session fault
    isolation: a site coroutine that raises records the error on its
    :class:`AioSite` (visible through :meth:`snapshot`) and stops its
    session siblings, while every *other* session keeps running — one
    crashed session must never take the host down.
    """

    def __init__(self) -> None:
        self.sessions: List[List[AioSite]] = []

    def add_session(self, sites: List[AioSite]) -> None:
        self.sessions.append(sites)

    @property
    def sites(self) -> List[AioSite]:
        return [site for group in self.sessions for site in group]

    def errors(self) -> List[BaseException]:
        return [site.error for site in self.sites if site.error is not None]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All hosted sessions' registries as one JSON-ready dict."""
        groups = [
            {
                "session": group[0].runtime.session_id if group else None,
                "sites": [site.snapshot() for site in group],
            }
            for group in self.sessions
        ]
        flat = [site for group in groups for site in group["sites"]]
        return {"sessions": groups, "aggregate": aggregate_snapshots(flat)}

    def prometheus(self) -> str:
        """All hosted sessions' registries as Prometheus text exposition."""
        from repro.obs.catalog import catalog_help

        return to_prometheus(
            [site.snapshot() for site in self.sites], help_text=catalog_help()
        )

    # ------------------------------------------------------------------
    async def run(self) -> None:
        await asyncio.gather(
            *(
                self._run_guarded(site, group)
                for group in self.sessions
                for site in group
            )
        )

    async def _run_guarded(self, site: AioSite, group: List[AioSite]) -> None:
        try:
            await site.run()
            if site.engine.termination == "peer-lost":
                # The resume deadline expired: reap the whole session.  The
                # sibling (if it is the one that vanished, it is already
                # gone; if not, it is itself suspended) must not occupy the
                # host past this site's verdict.
                for sibling in group:
                    if sibling is not site and not sibling.engine.done:
                        sibling.request_stop()
        except Exception as exc:
            site.error = exc
            site.runtime.events.emit(
                "error",
                asyncio.get_running_loop().time(),
                site.runtime.frame,
                error=str(exc),
            )
            # The sibling would otherwise stall at the SyncInput gate until
            # its linger never comes; stop the whole session cleanly.
            for sibling in group:
                if sibling is not site:
                    sibling.request_stop()


@dataclass
class AioSessionSpec:
    """One two-site session to host: game, length, input seed, config."""

    game: str = "counter"
    frames: int = 120
    seed: int = 0
    config: Optional[SyncConfig] = None
    session_id: int = 1
    #: Post-game pump budget (a peer may exit before its final ack lands,
    #: leaving the other site to wait this bound out — same as the other
    #: drivers).
    linger: float = 2.0

    def resolved_config(self) -> SyncConfig:
        return self.config if self.config is not None else SyncConfig()

    def sources(self) -> List[PadSource]:
        return [
            PadSource(RandomSource(self.seed + site), site) for site in (0, 1)
        ]


async def host_sessions(
    specs: List[AioSessionSpec],
    host: str = "127.0.0.1",
    raise_errors: bool = True,
    session_host: Optional[SessionHost] = None,
    machine_factory=None,
) -> List[List[SiteRuntime]]:
    """Run every session concurrently on the current event loop.

    Returns the runtimes grouped per session (two per spec), with their
    traces complete.  All sites of all sessions share the one loop — the
    many-sessions-per-process shape a lobby server needs.

    A crashed site no longer kills the host: its error lands on the
    :class:`AioSite` (and in the :class:`SessionHost` snapshot) and its
    session winds down, while other sessions run to completion.  With
    ``raise_errors`` (the default) the first error is re-raised *after*
    all sessions settle; pass ``session_host`` to keep the live
    introspection handle, and ``machine_factory(game_id)`` to substitute
    game construction (fault-injection tests).
    """
    from repro.emulator.machine import create_game

    build_machine = machine_factory if machine_factory is not None else create_game
    hosted = session_host if session_host is not None else SessionHost()
    grouped: List[List[SiteRuntime]] = []
    opened: List[AsyncUdpEndpoint] = []
    try:
        for spec in specs:
            for _ in range(2):
                opened.append(await AsyncUdpEndpoint.open(host))
            endpoints = opened[-2:]
            peers = [SitePeer(s, endpoints[s].address) for s in range(2)]
            plan = two_player_plan(
                spec.resolved_config(),
                lambda: build_machine(spec.game),
                spec.sources(),
                game_id=spec.game,
                session_id=spec.session_id,
                max_frames=spec.frames,
                frame_compute_time=0.0,  # real machines take real time
            )
            group = [
                AioSite(plan.build_engine(s, peers, linger=spec.linger), endpoints[s])
                for s in range(2)
            ]
            hosted.add_session(group)
            grouped.append([site.runtime for site in group])
        await hosted.run()
    finally:
        # Every socket bound above, also those of a spec that failed to build.
        for endpoint in opened:
            endpoint.close()
    if raise_errors:
        errors = hosted.errors()
        if errors:
            raise errors[0]
    return grouped


def run_sessions(
    specs: List[AioSessionSpec],
    host: str = "127.0.0.1",
    raise_errors: bool = True,
    session_host: Optional[SessionHost] = None,
    machine_factory=None,
) -> List[List[SiteRuntime]]:
    """Synchronous entry point: host the sessions on a fresh event loop."""
    return asyncio.run(
        host_sessions(
            specs,
            host=host,
            raise_errors=raise_errors,
            session_host=session_host,
            machine_factory=machine_factory,
        )
    )


def simulator_checksums(spec: AioSessionSpec, rtt: float = 0.040) -> List[int]:
    """Per-frame checksums of the same session on the discrete-event driver.

    The asyncio-hosted session must reproduce these exactly: merged inputs
    depend only on the sources and the lag, not on timing.
    """
    from repro.emulator.machine import create_game
    from repro.net.netem import NetemConfig

    plan = two_player_plan(
        spec.resolved_config(),
        machine_factory=lambda: create_game(spec.game),
        sources=spec.sources(),
        max_frames=spec.frames,
    )
    session = build_session(plan, NetemConfig.for_rtt(rtt))
    session.run()
    return list(session.vms[0].runtime.trace.checksums)
