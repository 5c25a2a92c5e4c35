"""Peer-liveness tracking for the failure-domain layer.

The sync protocol already generates a steady stream of per-peer traffic —
Sync flushes every 20 ms, RTT pings every 500 ms, control retransmissions —
so liveness needs no extra heartbeat message: :class:`PeerLiveness` simply
timestamps the last *authenticated* datagram heard from each peer (the
runtime only feeds it messages whose session id matched).

The engine consults it when the SyncInput gate blocks: a stall with all
gating peers recently heard is congestion (keep polling); a stall with a
silent peer is a failure domain (degrade, then suspend).  See
``docs/failure-modes.md`` for the full state machine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class PeerLiveness:
    """Last-heard bookkeeping for every peer of one site."""

    def __init__(self, peer_sites: Iterable[int], timeout_s: float) -> None:
        self.timeout_s = timeout_s
        #: None until the first authenticated message from that peer.
        self.last_heard: Dict[int, Optional[float]] = {
            site: None for site in peer_sites
        }
        #: Bumped on every ``heard``; lets the engine detect "any peer
        #: spoke since I last looked" without scanning the dict.
        self.mark = 0

    def heard(self, site: int, now: float) -> None:
        """Record an authenticated message from ``site`` at ``now``."""
        if site in self.last_heard:
            self.last_heard[site] = now
            self.mark += 1

    def unresponsive(
        self,
        sites: Iterable[int],
        now: float,
        timeout: Optional[float] = None,
    ) -> List[int]:
        """The subset of ``sites`` not heard within the timeout.

        A peer never heard at all counts as unresponsive — during a normal
        start the handshake traffic populates ``last_heard`` long before
        the first gate, so "never heard" mid-session means the peer died
        before we ever saw it.
        """
        limit = self.timeout_s if timeout is None else timeout
        silent: List[int] = []
        for site in sites:
            heard_at = self.last_heard.get(site)
            if heard_at is None or now - heard_at >= limit:
                silent.append(site)
        return silent
