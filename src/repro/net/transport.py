"""Datagram transport abstraction.

The sync module is sans-IO: it produces and consumes ``bytes`` payloads.
Drivers move those payloads through a :class:`DatagramSocket`, which is the
only interface the rest of the system sees.  Implementations:

* :class:`repro.net.simnet.SimSocket` — simulated UDP on the event loop,
* :class:`repro.net.tcpsim.TcpLikeSocket` — simulated reliable in-order
  stream (the baseline transport),
* :class:`repro.net.udp.AsyncUdpEndpoint` — a real OS UDP socket on an
  asyncio event loop (nonblocking receive, for many sessions per process).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List

#: Addresses are plain strings (site names) in the simulator and
#: ``"host:port"`` strings for real sockets.
Address = str


@dataclass(frozen=True)
class Datagram:
    """One received datagram: payload, sender, and local arrival time."""

    payload: bytes
    source: Address
    arrived_at: float


class DatagramSocket(ABC):
    """Unreliable, unordered, message-boundary-preserving socket."""

    @property
    @abstractmethod
    def address(self) -> Address:
        """This socket's own address."""

    @abstractmethod
    def send(self, payload: bytes, destination: Address) -> None:
        """Fire-and-forget a datagram (may be dropped/duplicated/reordered)."""

    @abstractmethod
    def receive_all(self) -> List[Datagram]:
        """Drain and return every datagram that has arrived so far."""

    def close(self) -> None:
        """Release resources.  Default: nothing to do."""


class TransportStats:
    """Counters every transport implementation keeps.

    These back the bandwidth/overhead numbers in the experiment reports.
    """

    def __init__(self) -> None:
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.datagrams_dropped = 0
        self.datagrams_duplicated = 0
        self.datagrams_reordered = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def record_send(self, size: int) -> None:
        self.datagrams_sent += 1
        self.bytes_sent += size

    def record_receive(self, size: int) -> None:
        self.datagrams_received += 1
        self.bytes_received += size

    def as_dict(self) -> dict:
        return {
            "datagrams_sent": self.datagrams_sent,
            "datagrams_received": self.datagrams_received,
            "datagrams_dropped": self.datagrams_dropped,
            "datagrams_duplicated": self.datagrams_duplicated,
            "datagrams_reordered": self.datagrams_reordered,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"TransportStats({pairs})"
