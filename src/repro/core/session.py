"""Rendezvous and session control.

§2: *"Some rendezvous mechanism is required for them to find each other,
such as instant messenger and games lobby. Then a UDP-based communication
channel will be established."*  §3.2: *"a simple session control protocol is
implemented to ensure that two sites start at almost the same time, with at
most one round-trip time deviation."*

Rendezvous is left to the caller: a session is built from its sites'
addresses.  :class:`SessionControl` is the start protocol as a sans-IO
state machine:

  1. every joiner sends ``HELLO`` (retransmitted) carrying digests of its
     game image and sync configuration;
  2. the master validates the digests — a mismatched game image could never
     stay consistent — and replies ``WELCOME`` with the assigned site number;
  3. once all expected sites are present the master broadcasts ``START`` and
     begins frame 0 immediately; joiners begin on receipt and confirm with
     ``START_ACK`` (the master retransmits ``START`` to unconfirmed sites).

  The resulting start-time skew is at most one one-way latency per site,
  i.e. within the paper's "at most one round-trip time" bound.
"""

from __future__ import annotations

import zlib
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import SyncConfig
from repro.core.messages import (
    VERSION,
    Bye,
    Hello,
    Message,
    Start,
    StartAck,
    Welcome,
)


def config_digest(config: SyncConfig) -> int:
    """Digest of the pacing-relevant configuration fields.

    Two sites disagreeing on CFPS or BufFrame would never converge, so the
    handshake refuses such pairs up front.  The wire-format version is
    folded in as belt-and-braces version negotiation: even a hypothetical
    future codec whose HELLO still parses under this one would be turned
    away here rather than desync mid-session (today's v1 peers never get
    this far — their datagrams already fail :func:`~repro.core.messages.decode`).

    Only the *negotiated starting point* is digested.  A site's live lag
    (the adaptive tuner) and its consistency mode (lockstep vs rollback,
    ``repro.core.policy``) are runtime-local choices that no message
    announces — they move where that site's own inputs land or execute,
    never what peers must agree on, so changing them mid-session does not
    renegotiate this digest.
    """
    text = f"wire{VERSION}|{config.cfps}|{config.buf_frame}".encode()
    return zlib.crc32(text)


def game_digest(game_id: str) -> int:
    """Digest standing in for the hash of the replicated game image."""
    return zlib.crc32(game_id.encode())


class SessionError(RuntimeError):
    """Raised on handshake validation failures (wrong game, wrong config)."""


class SessionPhase(Enum):
    JOINING = "joining"
    WAITING = "waiting"  # master: waiting for joiners; joiner: for START
    RUNNING = "running"


class SessionControl:
    """Sans-IO start protocol for one site.

    The driver calls :meth:`poll` periodically to obtain messages to send
    (handling retransmission), feeds received messages to
    :meth:`on_message`, and starts the frame loop once :attr:`started`;
    until then it owns the engine's wait (:meth:`retry`, :meth:`give_up`).
    """

    #: Handshake retransmission period (seconds).
    RETRY_INTERVAL = 0.05
    #: The message types :meth:`on_message` handles (BYE is advisory).
    MESSAGES = (Hello, Welcome, Start, StartAck, Bye)

    def __init__(
        self,
        config: SyncConfig,
        site_no: int,
        num_sites: int,
        game_id: str,
        session_id: int,
        peer_addresses: Dict[int, str],
        expected_sites: Optional[List[int]] = None,
        trace: Optional[Callable[..., None]] = None,
    ) -> None:
        """``expected_sites`` limits the start handshake to a subset of the
        assignment — late joiners are part of the input assignment but not of
        the initial handshake.  ``trace(kind, now, **detail)`` records."""
        self.config = config
        self.trace = trace if trace is not None else lambda kind, now, **detail: None
        self.site_no = site_no
        self.num_sites = num_sites
        self.game_id = game_id
        self.session_id = session_id
        self.peer_addresses = dict(peer_addresses)
        self.phase = SessionPhase.JOINING if site_no != 0 else SessionPhase.WAITING
        self.started_at: Optional[float] = None
        #: Session-wide granted feature bits.  The master starts from its
        #: own advertisement and ANDs in every joiner's HELLO; joiners
        #: learn the final intersection from START.  Until granted, all
        #: feature-dependent traffic (STAMP, extended PONG) is withheld —
        #: that is what keeps a feature site interoperable with a plain
        #: v2 peer whose decoder would reject unknown batch members.
        self.session_features: int = config.features if site_no == 0 else 0
        self._welcomed = site_no == 0
        handshake_sites = (
            list(expected_sites) if expected_sites is not None else list(range(num_sites))
        )
        self._joined: Dict[int, bool] = {
            s: (s == 0) for s in handshake_sites
        }
        self._start_acked: Dict[int, bool] = {
            s: (s == 0) for s in handshake_sites
        }
        self._next_retry = 0.0

    # ------------------------------------------------------------------
    @property
    def is_master(self) -> bool:
        return self.site_no == 0

    @property
    def started(self) -> bool:
        return self.phase is SessionPhase.RUNNING

    @property
    def all_joined(self) -> bool:
        return all(self._joined.values())

    @property
    def all_acked(self) -> bool:
        return all(self._start_acked.values())

    # ------------------------------------------------------------------
    def poll(self, now: float) -> List[Tuple[Message, str]]:
        """Messages (with destinations) due for (re)transmission."""
        if now < self._next_retry:
            return []
        self._next_retry = now + self.RETRY_INTERVAL
        out: List[Tuple[Message, str]] = []

        if self.is_master:
            if self.phase is SessionPhase.WAITING and self.all_joined:
                # Broadcast START and begin locally at this very instant.
                self.phase = SessionPhase.RUNNING
                self.started_at = now
            if self.phase is SessionPhase.RUNNING and not self.all_acked:
                for site, acked in self._start_acked.items():
                    if not acked:
                        out.append(
                            (Start(self.site_no, self.session_id,
                                   features=self.session_features),
                             self.peer_addresses[site])
                        )
        else:
            if not self._welcomed:
                hello = Hello(
                    sender_site=self.site_no,
                    session_id=self.session_id,
                    game_id=game_digest(self.game_id),
                    config_digest=config_digest(self.config),
                    features=self.config.features,
                )
                out.append((hello, self.peer_addresses[0]))
        for message, destination in out:
            self.trace("tx", now, msg=type(message).__name__, dest=destination)
        return out

    def retry(self, now: float) -> Tuple[List[Tuple[Message, str]], float]:
        """HELLO (joiners) or START (the master) re-sent, and when
        :meth:`poll` will next transmit (earlier calls return nothing)."""
        return self.poll(now), self._next_retry

    def give_up(self, now: float) -> str:
        self.trace("error", now, error="handshake timeout")
        return "handshake-timeout"

    def mark_live(self, now: float) -> None:
        """Skip the start handshake entirely (late join / resume).

        The site enters a session that is already running, so it must not
        keep offering HELLO to the master — ``_welcomed`` is set as if the
        handshake had completed.  No START will deliver the granted
        feature word either; out-of-band admission implies a matching
        configuration, so the site's own advertisement stands in for it.
        """
        self._welcomed = True
        self.phase = SessionPhase.RUNNING
        self.started_at = now
        self.session_features = self.config.features

    def on_message(self, message: Message, now: float) -> List[Tuple[Message, str]]:
        """Feed a received control message; returns immediate replies."""
        if message.session_id != self.session_id:
            return []
        replies: List[Tuple[Message, str]] = []

        if isinstance(message, Hello) and self.is_master:
            self._check_known(message)
            if message.game_id != game_digest(self.game_id):
                raise SessionError(
                    f"site {message.sender_site} offers a different game image"
                )
            if message.config_digest != config_digest(self.config):
                raise SessionError(
                    f"site {message.sender_site} runs an incompatible SyncConfig"
                )
            self._joined[message.sender_site] = True
            self.session_features &= message.features
            replies.append(
                (
                    Welcome(
                        sender_site=self.site_no,
                        session_id=self.session_id,
                        assigned_site=message.sender_site,
                        num_sites=self.num_sites,
                    ),
                    self.peer_addresses[message.sender_site],
                )
            )

        elif isinstance(message, Welcome) and not self.is_master:
            if message.assigned_site != self.site_no:
                raise SessionError(
                    f"master assigned site {message.assigned_site}, "
                    f"we are {self.site_no}"
                )
            self._welcomed = True
            # Duplicate WELCOMEs (the master answers every retransmitted
            # HELLO) may arrive after START; the phase must never regress.
            if self.phase is SessionPhase.JOINING:
                self.phase = SessionPhase.WAITING

        elif isinstance(message, Start) and not self.is_master:
            if self.phase is not SessionPhase.RUNNING:
                self.phase = SessionPhase.RUNNING
                self.started_at = now
                # The granted word is the intersection with our own offer:
                # a master that never heard of features grants none.
                self.session_features = message.features & self.config.features
            replies.append(
                (
                    StartAck(self.site_no, self.session_id),
                    self.peer_addresses[0],
                )
            )

        elif isinstance(message, StartAck) and self.is_master:
            self._check_known(message)
            self._start_acked[message.sender_site] = True

        return replies

    def _check_known(self, message: Message) -> None:
        """Refuse a HELLO or START_ACK from a site this session has no
        address for, before any of its state is touched."""
        if message.sender_site not in self.peer_addresses:
            raise SessionError(f"site {message.sender_site} is not in this session")
