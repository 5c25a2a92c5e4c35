"""Real UDP sockets for the asyncio driver.

This is the transport the paper actually deploys: the sync messages ride
plain UDP datagrams, and all reliability lives in the sync module itself.
:class:`AsyncUdpEndpoint` is a nonblocking ``asyncio.DatagramProtocol``
endpoint for :mod:`repro.core.aio`: arrivals buffer on the event loop's
own thread and call the site parked on the endpoint, so many sessions
share one loop without any thread (or task switch) per site.

Addresses are ``"host:port"`` strings to stay interchangeable with the
simulator's string addresses.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Tuple

from repro.net.transport import Address, Datagram, DatagramSocket, TransportStats

#: Generous MTU for sync messages; a v2 BATCH datagram is capped at
#: ``repro.core.messages.MAX_BATCH_BYTES`` (1200 B, chosen to clear every
#: common path MTU), so the only payloads that approach this bound are
#: standalone STATE_SNAPSHOT transfers to late joiners.
MAX_DATAGRAM = 8192


def parse_address(address: Address) -> Tuple[str, int]:
    """Split ``"host:port"`` into a socket address tuple."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"malformed address {address!r}; expected 'host:port'")
    return host, int(port)


def format_address(host: str, port: int) -> Address:
    return f"{host}:{port}"


class AsyncUdpEndpoint(asyncio.DatagramProtocol, DatagramSocket):
    """A nonblocking UDP endpoint living on an asyncio event loop.

    Datagrams are stamped with ``loop.time()`` on arrival — the same clock
    the asyncio driver feeds the engine — and buffered until the owning
    site drains them with :meth:`receive_all` in the wake-up it parked for
    with :meth:`wait`.  Create instances with :meth:`open`.
    """

    def __init__(self) -> None:
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._address: Address = ""
        self._pending: List[Datagram] = []
        # Parked = wait() was called and wake() has not come yet: the
        # callback to run, and the one handle that runs it at the deadline.
        self._parked: Optional[Callable[[], None]] = None
        self._timer: Optional[asyncio.Handle] = None
        self.stats = TransportStats()
        #: ICMP/OS errors reported for this endpoint (e.g. port unreachable
        #: after the peer's process died).  UDP semantics: the datagram is
        #: gone, retransmission recovers — so count, never raise.
        self.transport_errors = 0
        #: Optional observer: ``callback(exc)`` per reported error (the
        #: asyncio driver routes it into site metrics).
        self.on_transport_error = None

    @classmethod
    async def open(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> "AsyncUdpEndpoint":
        """Bind a datagram endpoint on the running loop."""
        loop = asyncio.get_running_loop()
        _, protocol = await loop.create_datagram_endpoint(
            cls, local_addr=(host, port)
        )
        return protocol

    # ------------------------------------------------------------------
    # asyncio.DatagramProtocol callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        host, port = transport.get_extra_info("sockname")[:2]
        self._address = format_address(host, port)

    def datagram_received(self, data: bytes, addr) -> None:
        self.stats.record_receive(len(data))
        self._pending.append(
            Datagram(
                payload=data,
                source=format_address(addr[0], addr[1]),
                arrived_at=self._loop.time(),
            )
        )
        self.wake()

    def error_received(self, exc: OSError) -> None:
        """asyncio callback for OS-level datagram errors.

        Linux reports ICMP port-unreachable here for *connected* or
        recently-used destinations; before this handler existed the
        default (silent drop) hid peer death from the metrics, and a
        custom protocol without it would crash the transport.
        """
        self.transport_errors += 1
        if self.on_transport_error is not None:
            self.on_transport_error(exc)

    # ------------------------------------------------------------------
    # DatagramSocket interface
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self._address

    def send(self, payload: bytes, destination: Address) -> None:
        if self._transport is None or self._transport.is_closing():
            raise RuntimeError("endpoint is closed")
        if len(payload) > MAX_DATAGRAM:
            raise ValueError(
                f"datagram of {len(payload)} bytes exceeds MAX_DATAGRAM={MAX_DATAGRAM}"
            )
        self.stats.record_send(len(payload))
        self._transport.sendto(payload, parse_address(destination))

    def receive_all(self) -> List[Datagram]:
        drained, self._pending = self._pending, []
        return drained

    def receive_one(self) -> Optional[Datagram]:
        if not self._pending:
            return None
        return self._pending.pop(0)

    def wait(self, deadline: Optional[float], callback: Callable[[], None]) -> None:
        """Park: ``callback()`` runs once, inside the arrival of the next
        datagram or when ``loop.time()`` reaches ``deadline`` (absolute;
        None waits for a datagram alone), whichever is first — on the next
        loop iteration if datagrams are already buffered.  One site parks
        at a time, once per wake-up.

        One timer handle per parking and no future: a wake-up is one loop
        iteration, not one to resolve a waiter and one to resume its task.
        """
        self._parked = callback
        if self._pending:
            self._timer = self._loop.call_soon(self.wake)
        elif deadline is not None:
            self._timer = self._loop.call_at(deadline, self.wake)

    def wake(self) -> None:
        """Run the parked callback now, if any, and drop its deadline.

        The loop calls this at the deadline and :meth:`datagram_received`
        on arrival; ``loop.call_soon(endpoint.wake)`` delivers out-of-band
        control (a stop request) to a site parked on its engine deadline.
        """
        callback, self._parked = self._parked, None
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
        if callback is not None:
            callback()

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
