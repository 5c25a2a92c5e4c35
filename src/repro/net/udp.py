"""Real UDP sockets for the asyncio driver.

This is the transport the paper actually deploys: the sync messages ride
plain UDP datagrams, and all reliability lives in the sync module itself.
:class:`AsyncUdpEndpoint` is a nonblocking ``asyncio.DatagramProtocol``
endpoint for :mod:`repro.core.aio`: arrivals buffer on the event loop's
own thread and call the site parked on the endpoint, so many sessions
share one loop without any thread (or task switch) per site.

A parked site's deadline is a Linux ``timerfd`` per endpoint, armed at
the absolute ``CLOCK_MONOTONIC`` time ``loop.time()`` reads and watched
with ``loop.add_reader``: the selector returns when the kernel timer
expires.  ``loop.call_at`` would wake it up to a millisecond late, because
``selectors.EpollSelector`` rounds every timeout *up* to one.  Where libc
has no ``timerfd_create`` or the loop cannot watch a file descriptor, the
endpoint parks on ``loop.call_at`` instead.

Addresses are ``"host:port"`` strings to stay interchangeable with the
simulator's string addresses.
"""

from __future__ import annotations

import asyncio
import math
import os
from typing import Callable, List, Optional, Tuple

from repro.net.transport import Address, Datagram, DatagramSocket, TransportStats

#: Generous MTU for sync messages; a v2 BATCH datagram is capped at
#: ``repro.core.messages.MAX_BATCH_BYTES`` (1200 B, chosen to clear every
#: common path MTU), so the only payloads that approach this bound are
#: standalone STATE_SNAPSHOT transfers to late joiners.
MAX_DATAGRAM = 8192


#: ``<sys/timerfd.h>`` and ``<time.h>`` constants (Linux, every arch with
#: the generic ``O_NONBLOCK`` and ``O_CLOEXEC`` values).
CLOCK_MONOTONIC = 1
TFD_TIMER_ABSTIME = 1
TFD_NONBLOCK = 0o4000
TFD_CLOEXEC = 0o2000000

#: ``(timerfd_create, timerfd_settime, itimerspec type)`` bound from libc
#: by the first endpoint that opens, so a process that never opens one
#: never imports ``ctypes``; ``()`` where libc has no timerfd.
_timerfd_calls: Optional[tuple] = None


def _timerfd_binding() -> tuple:
    global _timerfd_calls
    if _timerfd_calls is None:
        import ctypes

        try:
            libc = ctypes.CDLL(None, use_errno=True)
            create, settime = libc.timerfd_create, libc.timerfd_settime
        except (AttributeError, OSError, TypeError):
            _timerfd_calls = ()
            return _timerfd_calls

        class Itimerspec(ctypes.Structure):
            # struct itimerspec: it_interval, then it_value; two timespecs.
            _fields_ = [
                (name, ctypes.c_long)
                for name in ("interval_s", "interval_ns", "value_s", "value_ns")
            ]

        create.argtypes = (ctypes.c_int, ctypes.c_int)
        create.restype = settime.restype = ctypes.c_int
        settime.argtypes = (
            ctypes.c_int, ctypes.c_int, ctypes.POINTER(Itimerspec), ctypes.c_void_p
        )
        _timerfd_calls = (create, settime, Itimerspec)
    return _timerfd_calls


def _errno_error() -> OSError:
    import ctypes

    errno = ctypes.get_errno()
    return OSError(errno, os.strerror(errno))


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
        # callback to run, and what runs it at the deadline: at most one
        # loop handle, or the kernel timer, whose deadline ``_timed`` is.
        self._parked: Optional[Callable[[], None]] = None
        self._timer: Optional[asyncio.Handle] = None
        self._timed: Optional[float] = None
        self._timerfd: Optional[int] = None
        # The absolute ns the kernel timer is set to (0: disarmed).  It
        # stays set across wake-ups and after the expiry, until re-armed.
        self._armed_ns = 0
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
        _, endpoint = await loop.create_datagram_endpoint(
            cls, local_addr=(host, port)
        )
        calls = _timerfd_binding()
        if calls:
            try:
                endpoint._open_timerfd(*calls)
            except OSError:
                endpoint.close()
                raise
        return endpoint

    def _open_timerfd(self, create, settime, itimerspec) -> None:
        fd = create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)
        if fd < 0:
            raise _errno_error()
        try:
            self._loop.add_reader(fd, self._expired)
        except NotImplementedError:  # a loop that cannot watch an fd
            os.close(fd)
            return
        self._timerfd, self._settime, self._spec = fd, settime, itimerspec()

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

    def wait(self, deadline: Optional[float], callback: Callable[[], None]) -> None:
        """Park: ``callback()`` runs once, inside the arrival of the next
        datagram or when ``loop.time()`` reaches ``deadline`` (absolute;
        None waits for a datagram alone), whichever is first — on the next
        loop iteration if datagrams are already buffered or the deadline
        has passed.  One site parks at a time, once per wake-up.

        One timer per parking and no future: a wake-up is one loop
        iteration, not one to resolve a waiter and one to resume its task.
        """
        self._parked = callback
        if self._pending:
            self._timer = self._loop.call_soon(self.wake)
        elif deadline is not None:
            if self._timerfd is None:
                self._timer = self._loop.call_at(deadline, self.wake)
            elif deadline <= self._loop.time():
                self._timer = self._loop.call_soon(self.wake)
            else:
                # Rounded up, so it never fires early; and at least 1 ns,
                # because an it_value of {0, 0} disarms the timer instead.
                ns = max(1, math.ceil(deadline * 1e9))
                if ns != self._armed_ns:  # a datagram mostly leaves it as it was
                    self._set_timer(TFD_TIMER_ABSTIME, ns)
                self._timed = deadline

    def wake(self) -> None:
        """Run the parked callback now, if any, and drop its deadline.

        The loop calls this at the deadline and :meth:`datagram_received`
        on arrival; ``loop.call_soon(endpoint.wake)`` delivers out-of-band
        control (a stop request) to a site parked on its engine deadline.
        """
        callback, self._parked = self._parked, None
        self._timed = None
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
        if callback is not None:
            callback()

    def _expired(self) -> None:
        """The loop calls this while the timerfd reads ready.  Its expiry
        count is never read: each system call costs several µs right after
        a sleep, and re-arming or disarming resets the count anyway."""
        if self._timed is None:
            # Nobody parks on it (a datagram or wake() came first and the
            # site parked without it): clear it, or the selector returns it
            # on every iteration.
            self._set_timer(0, 0)
        elif self._loop.time() >= self._timed:
            self.wake()
        # Otherwise it was re-armed for a later deadline after the selector
        # saw this expiry, and nothing is due.

    def _set_timer(self, flags: int, ns: int) -> None:
        """``timerfd_settime`` to a one-shot expiry ``ns`` (0 disarms)."""
        spec = self._spec
        spec.value_s, spec.value_ns = divmod(ns, 1_000_000_000)
        if self._settime(self._timerfd, flags, spec, None):
            raise _errno_error()
        self._armed_ns = ns

    def close(self) -> None:
        """Close the socket and the kernel timer: a site still parked here
        wakes only through :meth:`wake` now."""
        if self._transport is not None:
            self._transport.close()
        if self._timerfd is not None:
            self._loop.remove_reader(self._timerfd)
            os.close(self._timerfd)
            self._timerfd = None
