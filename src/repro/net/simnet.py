"""Simulated UDP network on the discrete-event loop.

A :class:`SimNetwork` connects named sockets with per-direction
:class:`~repro.net.netem.NetemConfig` impairments.  Each socket owns a
:class:`~repro.sim.process.Mailbox`; its consumer — a site's driver, the
time server — is the mailbox's ``listener`` and is called on arrival.

Determinism: every link direction draws from its own ``random.Random``
seeded from the network seed and the (source, destination) pair, so adding a
link never perturbs another link's packet fate sequence.

The network is payload-agnostic: one datagram gets one fate, whether it
carries a single v2 message or a coalesced BATCH of several (see
``docs/wire-format.md``).  The ground-truth log therefore counts
*datagrams*; telemetry comparing per-message counters against it must
account for batching (``net_batch_coalesced``).
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Tuple

from repro.net.netem import LinkScheduler, NetemConfig
from repro.net.transport import Address, Datagram, DatagramSocket, TransportStats
from repro.sim.eventloop import EventLoop
from repro.sim.process import Mailbox


class SimSocket(DatagramSocket):
    """A simulated UDP endpoint bound to a :class:`SimNetwork` address."""

    def __init__(self, network: "SimNetwork", address: Address) -> None:
        self._network = network
        self._address = address
        self.mailbox = Mailbox(network.loop, name=f"sock:{address}")
        self.stats = TransportStats()
        self._closed = False

    @property
    def address(self) -> Address:
        return self._address

    def send(self, payload: bytes, destination: Address) -> None:
        if self._closed:
            raise RuntimeError(f"socket {self._address!r} is closed")
        self.stats.record_send(len(payload))
        self._network.transmit(self._address, destination, payload)

    def receive_all(self) -> List[Datagram]:
        return [env.payload for env in self.mailbox.drain()]

    def deliver(self, datagram: Datagram) -> None:
        """Called by the network when a packet arrives."""
        if self._closed:
            return
        self.stats.record_receive(len(datagram.payload))
        self.mailbox.deliver(datagram)

    def close(self) -> None:
        self._closed = True


class SimNetwork:
    """A set of named endpoints joined by impaired point-to-point links."""

    def __init__(self, loop: EventLoop, seed: int = 0) -> None:
        self.loop = loop
        self.seed = seed
        self._sockets: Dict[Address, SimSocket] = {}
        self._links: Dict[Tuple[Address, Address], LinkScheduler] = {}
        self._default_config: Optional[NetemConfig] = NetemConfig()
        #: Per-direction ground truth of every packet fate the impairment
        #: model decided — the reference the telemetry tests compare the
        #: protocol's own counters against.
        self._truth: Dict[Tuple[Address, Address], Dict[str, int]] = {}
        #: Directions administratively blackholed (chaos faults); packets
        #: sent into a down link count as dropped in the ground truth.
        self._down: set = set()
        #: Directions under corruption (chaos faults): map of direction →
        #: set of wire type nibbles whose datagrams get one bit flipped.
        self._corrupt: Dict[Tuple[Address, Address], set] = {}
        #: Chronological record of every fault applied — partitions, link
        #: deaths, heals, crashes — the reference the chaos tests align the
        #: engines' degraded/suspended trace records against.
        self.fault_log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def socket(self, address: Address) -> SimSocket:
        """Create (or fetch) the socket bound to ``address``."""
        if address not in self._sockets:
            self._sockets[address] = SimSocket(self, address)
        return self._sockets[address]

    def set_default_link(self, config: Optional[NetemConfig]) -> None:
        """Config used for pairs without an explicit link.

        Pass ``None`` to make unconfigured pairs unreachable.
        """
        self._default_config = config

    def connect(
        self,
        a: Address,
        b: Address,
        config: NetemConfig,
        reverse_config: Optional[NetemConfig] = None,
    ) -> None:
        """Install a bidirectional link; asymmetric if ``reverse_config``."""
        self._install(a, b, config)
        self._install(b, a, reverse_config if reverse_config is not None else config)

    def _install(self, src: Address, dst: Address, config: NetemConfig) -> None:
        self._links[(src, dst)] = LinkScheduler(config, self._link_rng(src, dst))

    # ------------------------------------------------------------------
    # Fault injection (chaos harness)
    # ------------------------------------------------------------------
    def set_link_down(self, src: Address, dst: Address, down: bool = True) -> None:
        """Blackhole (or heal) one direction without touching its netem.

        The link's scheduler, RNG stream and truth counters survive the
        outage, so a heal resumes the exact packet-fate sequence an
        uninterrupted run would have seen for the packets actually sent.
        """
        key = (src, dst)
        if down:
            self._down.add(key)
        else:
            self._down.discard(key)
        self.log_fault("link_down" if down else "link_up", src=src, dst=dst)

    def set_partition(self, group_a, group_b, partitioned: bool = True) -> None:
        """Cut (or heal) every direction between two address groups."""
        for a in group_a:
            for b in group_b:
                self.set_link_down(a, b, partitioned)
                self.set_link_down(b, a, partitioned)

    #: Wire type nibble of ``StateSnapshot`` (``docs/wire-format.md``) —
    #: the default corruption target, so a fault window hits the state
    #: transfer without breaking handshake or sync traffic.
    SNAPSHOT_TYPE_ID = 9

    def set_corruption(
        self,
        src: Address,
        dst: Address,
        active: bool = True,
        type_id: Optional[int] = None,
    ) -> None:
        """Start (or stop) flipping one bit in matching ``src → dst`` data.

        While active, every datagram on the direction whose wire header
        carries ``type_id`` (default: state snapshots) has one
        deterministically chosen payload bit inverted before delivery.  The
        datagram still *arrives* — corruption is an integrity fault, not a
        loss fault — so the packet-fate conservation law is unaffected; a
        separate ``corrupted`` truth counter records the tampering.
        """
        key = (src, dst)
        nibble = self.SNAPSHOT_TYPE_ID if type_id is None else type_id
        if active:
            self._corrupt.setdefault(key, set()).add(nibble)
        else:
            types = self._corrupt.get(key)
            if types is not None:
                types.discard(nibble)
                if not types:
                    del self._corrupt[key]
        self.log_fault(
            "corrupt_on" if active else "corrupt_off",
            src=src,
            dst=dst,
            type_id=nibble,
        )

    def _maybe_corrupt(
        self, source: Address, destination: Address, payload: bytes
    ) -> bytes:
        """Apply the corruption fault, if armed for this direction/type."""
        types = self._corrupt.get((source, destination))
        if not types or len(payload) < 4:
            return payload
        if payload[0:2] != b"RG" or (payload[2] & 0x0F) not in types:
            return payload
        # Deterministic bit choice (a pure function of the payload), biased
        # away from the first/last bytes so the flip lands in the state
        # body — exercising the CRC rejection path — rather than producing
        # a header decode error.  Both outcomes recover identically; this
        # just makes the scenario observable via ``state_crc_errors``.
        margin = 64 if len(payload) > 1024 else 0
        span = (len(payload) - 2 * margin) * 8
        index = margin * 8 + zlib.crc32(payload) % span
        mutated = bytearray(payload)
        mutated[index // 8] ^= 1 << (index % 8)
        truth = self._link_truth(source, destination)
        truth.setdefault("corrupted", 0)
        truth["corrupted"] += 1
        self.log_fault(
            "corrupted", src=source, dst=destination, bytes=len(payload)
        )
        return bytes(mutated)

    def drop_socket(self, address: Address) -> None:
        """Simulate a process crash: close the socket and forget it.

        Forgetting matters — a restarted site calling :meth:`socket` must
        get a *fresh* endpoint (empty mailbox), not the dead one's queue.
        In-flight deliveries to the dead address count as "undeliverable"
        in the ground truth.
        """
        sock = self._sockets.pop(address, None)
        if sock is not None:
            sock.close()
        self.log_fault("crash", address=address)

    def log_fault(self, kind: str, **detail: object) -> None:
        """Append one entry to the ground-truth fault log."""
        entry: Dict[str, object] = {"kind": kind, "t": self.loop.clock.now()}
        entry.update(detail)
        self.fault_log.append(entry)

    def _link_rng(self, src: Address, dst: Address) -> random.Random:
        label = f"{self.seed}|{src}->{dst}".encode()
        return random.Random(zlib.crc32(label))

    def _scheduler_for(
        self, src: Address, dst: Address
    ) -> Optional[LinkScheduler]:
        scheduler = self._links.get((src, dst))
        if scheduler is None:
            if self._default_config is None:
                return None
            scheduler = LinkScheduler(self._default_config, self._link_rng(src, dst))
            self._links[(src, dst)] = scheduler
        return scheduler

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def transmit(self, source: Address, destination: Address, payload: bytes) -> None:
        """Route one datagram; silently drops to unknown destinations (UDP)."""
        scheduler = self._scheduler_for(source, destination)
        if scheduler is None:
            return
        truth = self._link_truth(source, destination)
        truth["sent"] += 1
        sender = self._sockets.get(source)
        if (source, destination) in self._down:
            truth["dropped"] += 1
            if sender is not None:
                sender.stats.datagrams_dropped += 1
            return
        plan = scheduler.plan(self.loop.clock.now(), len(payload))
        if plan.dropped:
            truth["dropped"] += 1
            if sender is not None:
                sender.stats.datagrams_dropped += 1
            return
        if len(plan.times) > 1:
            truth["duplicated"] += len(plan.times) - 1
            if sender is not None:
                sender.stats.datagrams_duplicated += len(plan.times) - 1
        payload = self._maybe_corrupt(source, destination, payload)
        for when in plan.times:
            self.loop.call_at(
                when, self._make_delivery(source, destination, payload, when)
            )

    def _make_delivery(
        self, source: Address, destination: Address, payload: bytes, when: float
    ):
        def deliver() -> None:
            truth = self._link_truth(source, destination)
            target = self._sockets.get(destination)
            if target is not None and not target._closed:
                truth["delivered"] += 1
                target.deliver(Datagram(payload, source, when))
            else:
                # The destination crashed (or never bound) between send and
                # arrival; counted so the conservation law still closes:
                # delivered == sent - dropped + duplicated - undeliverable.
                truth.setdefault("undeliverable", 0)
                truth["undeliverable"] += 1

        return deliver

    # ------------------------------------------------------------------
    # Ground truth (telemetry verification)
    # ------------------------------------------------------------------
    def _link_truth(self, source: Address, destination: Address) -> Dict[str, int]:
        key = (source, destination)
        truth = self._truth.get(key)
        if truth is None:
            truth = self._truth[key] = {
                "sent": 0,
                "dropped": 0,
                "duplicated": 0,
                "delivered": 0,
            }
        return truth

    def ground_truth(
        self,
        source: Optional[Address] = None,
        destination: Optional[Address] = None,
    ) -> Dict[str, int]:
        """Packet-fate totals, optionally filtered by link endpoint.

        Once all scheduled deliveries have executed (the loop drained), the
        counts obey ``delivered == sent - dropped + duplicated -
        undeliverable`` — the conservation law the observability tests
        assert against the runtimes' own counters.  Without crash faults
        ``undeliverable`` is absent/zero and the law reduces to the
        original three-term form.
        """
        totals = {"sent": 0, "dropped": 0, "duplicated": 0, "delivered": 0}
        for (src, dst), truth in self._truth.items():
            if source is not None and src != source:
                continue
            if destination is not None and dst != destination:
                continue
            for key, value in truth.items():
                totals[key] = totals.get(key, 0) + value
        return totals
