"""Network substrate.

The paper runs its two game replicas over UDP through a Netem bridge.  This
package provides:

* :mod:`repro.net.transport` — the datagram transport abstraction the sync
  module is written against.
* :mod:`repro.net.netem` — per-link impairment configuration (delay, jitter,
  loss, duplication, reordering, rate limit), mirroring Linux Netem.
* :mod:`repro.net.simnet` — a simulated UDP network running on the
  discrete-event loop.
* :mod:`repro.net.tcpsim` — a simulated TCP-like (reliable, in-order,
  head-of-line-blocking) transport used as the baseline the paper argues
  against in §3.1.
* :mod:`repro.net.udp` — real UDP sockets for the asyncio driver.

The package imports neither of the last two: their users import the
module itself.  The real-socket one loads ``asyncio`` (and with it
``ssl``), which no simulated session needs.
"""

from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork, SimSocket
from repro.net.transport import Datagram, DatagramSocket

__all__ = [
    "Datagram",
    "DatagramSocket",
    "NetemConfig",
    "SimNetwork",
    "SimSocket",
]
