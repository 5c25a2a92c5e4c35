"""Driver-support layer shared by the simulator and asyncio drivers.

Each driver owns exactly two jobs: hand the engine, once per wake-up, the
datagrams received since the last one, and apply the effects it returns.
Both jobs are identical across runtimes, so they live here once — the
per-driver code is only the waiting primitive (event-loop callbacks,
coroutine).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.engine import (
    Degraded,
    Effect,
    Finished,
    PeerLost,
    Present,
    Resumed,
    Send,
    SiteEngine,
)
from repro.net.transport import Datagram


class PresentationStatus:
    """What a driver's presentation layer should currently show.

    Absorbs the liveness effects (:class:`Degraded`, :class:`PeerLost`,
    :class:`Resumed`) so every driver shares one "freeze the screen and say
    waiting-for-peer" state machine instead of re-deriving it from the
    engine's phase.
    """

    def __init__(self) -> None:
        #: Presentation should freeze and show "waiting for peer".
        self.degraded = False
        #: The session is suspended pending the peer's return.
        self.suspended = False
        #: The peer never returned; the session terminated.
        self.peer_lost = False
        self.waiting_on: tuple = ()
        self.resumes = 0
        self.degraded_episodes = 0

    def absorb(self, effect: Effect) -> None:
        kind = type(effect)
        if kind is Degraded:
            self.degraded = True
            self.waiting_on = effect.waiting_on
            self.degraded_episodes += 1
        elif kind is PeerLost:
            self.degraded = True
            self.suspended = True
            self.waiting_on = effect.waiting_on
        elif kind is Resumed:
            self.degraded = False
            self.suspended = False
            self.waiting_on = ()
            self.resumes += 1
        elif kind is Present:
            self.degraded = False
            self.waiting_on = ()

    def on_finished(self, termination: Optional[str]) -> None:
        if termination == "peer-lost":
            self.peer_lost = True

    def as_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "suspended": self.suspended,
            "peer_lost": self.peer_lost,
            "waiting_on": list(self.waiting_on),
            "resumes": self.resumes,
            "degraded_episodes": self.degraded_episodes,
        }


def apply_effects(
    effects: Iterable[Effect],
    send: Callable[[bytes, str], None],
    status: Optional[PresentationStatus] = None,
) -> bool:
    """Apply one batch of engine effects; False once ``Finished`` appears.

    ``Send`` goes out through ``send``; its payload is opaque here — the
    engine's outbox has already encoded it (possibly as a coalesced v2
    BATCH datagram), so drivers move bytes and never touch the codec.
    The liveness effects update ``status`` when given.  Timers are not
    effects — drivers pull ``engine.next_deadline()`` — and ``Present`` /
    ``Stall`` are notifications these headless drivers have no screen
    for; the harness admits a late joiner through
    ``runtime.recovery.on_snapshot_served``.
    """
    running = True
    for effect in effects:
        if status is not None:
            status.absorb(effect)
        if isinstance(effect, Send):
            send(effect.payload, effect.destination)
        elif isinstance(effect, Finished):
            running = False
    return running


def feed_datagrams(
    engine: SiteEngine,
    datagrams: Iterable[Datagram],
    now: float,
) -> List[Effect]:
    """The one receive path of both drivers: a wake-up hands the
    engine what was received and the time.  It absorbs the whole batch and
    pumps once, so replies to several datagrams leave coalesced, and an
    empty batch (the caller woke because a timer came due) is just the poll."""
    return engine.poll(now, datagrams)
