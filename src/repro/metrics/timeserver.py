"""The measurement time server.

§4: *"The two PCs are also connected similarly to a time server for
measuring game times on the two PCs without having to synchronize their
physical clocks. ... every site sends a packet to the time server when every
frame begins and the time server records the receiving time."*

The time server lives on its own sub-millisecond links, so the recorded
arrival times are comparable across sites without clock synchronization —
the same methodology, reproduced literally.

A report is only the frame number, as a canonical uvarint (one byte below
frame 128, two below 16,384): the server knows the site from the
datagram's source address, registered by :meth:`TimeServer.attach_site`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.messages import DecodeError, append_uvarint, read_uvarint
from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork, SimSocket

TIMESERVER_ADDRESS = "timeserver"


def encode_report(frame: int) -> bytes:
    out = bytearray()
    append_uvarint(out, frame)
    return bytes(out)


def decode_report(raw: bytes) -> int:
    """The frame a report carries; raises :class:`DecodeError` otherwise."""
    frame, offset = read_uvarint(raw, 0, "time-server report")
    if offset != len(raw):
        raise DecodeError(f"time-server report has {len(raw) - offset} trailing bytes")
    return frame


class TimeServer:
    """Records the arrival time of each site's frame-begin packets."""

    def __init__(
        self,
        network: SimNetwork,
        address: str = TIMESERVER_ADDRESS,
        link: Optional[NetemConfig] = None,
    ) -> None:
        self.address = address
        self._link = link if link is not None else NetemConfig.lan()
        self._socket: SimSocket = network.socket(address)
        self._socket.mailbox.listener = self._pump
        #: arrivals[site][frame] = arrival time at the server.
        self.arrivals: Dict[int, Dict[int, float]] = {}
        #: The site behind each attached source address.
        self._sites: Dict[str, int] = {}

    @property
    def link(self) -> NetemConfig:
        """The sub-millisecond link every site should be connected with."""
        return self._link

    def attach_site(self, network: SimNetwork, site_address: str, site: int) -> None:
        """Wire ``site`` to the server over the LAN link; its reports are
        known by their source address."""
        network.connect(site_address, self.address, self._link)
        self._sites[site_address] = site

    def _pump(self) -> None:
        while True:
            envelope = self._socket.mailbox.poll()
            if envelope is None:
                break
            datagram = envelope.payload
            site = self._sites.get(datagram.source)
            try:
                frame = decode_report(datagram.payload)
            except DecodeError:
                continue  # not a report; ignore like a real server would
            if site is None:
                continue  # not from an attached site
            self.arrivals.setdefault(site, {})[frame] = datagram.arrived_at

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def frames_recorded(self, site: int) -> int:
        return len(self.arrivals.get(site, {}))

    def frame_time_series(self, site: int) -> List[float]:
        """Per-frame durations for ``site`` as seen by the server (Series 1)."""
        frames = self.arrivals.get(site, {})
        ordered = [frames[f] for f in sorted(frames)]
        return [b - a for a, b in zip(ordered, ordered[1:])]

    def synchrony_series(self, site_a: int, site_b: int) -> List[float]:
        """Per-frame signed time differences ``t_a[f] − t_b[f]`` (Series 2).

        Only frames both sites reported are compared.
        """
        a = self.arrivals.get(site_a, {})
        b = self.arrivals.get(site_b, {})
        common = sorted(set(a) & set(b))
        return [a[f] - b[f] for f in common]
