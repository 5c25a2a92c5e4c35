"""A TCP-like transport baseline.

§3.1 of the paper argues that TCP's reliability is the *wrong* reliability
for lockstep gaming: loss recovery via retransmission timeouts plus in-order
delivery (head-of-line blocking) stall every message behind the missing one,
while the paper's UDP scheme re-sends the whole unacknowledged input window
every flush so a single loss costs at most one flush interval.

:class:`TcpLikeNetwork` implements the minimum of TCP that exhibits that
behaviour on top of the same Netem link model:

* every application message is one segment with a sequence number,
* the receiver delivers segments to the application strictly in order,
* cumulative ACKs; a lost segment is retransmitted after an RTO of
  ``max(min_rto, 2 * srtt)`` (Jacobson-style smoothed RTT, simplified),
* duplicate segments are ignored via the sequence number.

This is intentionally not a full TCP (no congestion window, no fast
retransmit) — the ablation isolates exactly the in-order + RTO semantics the
paper's argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork, SimSocket
from repro.net.transport import Address, Datagram, DatagramSocket, TransportStats
from repro.sim.eventloop import EventLoop
from repro.sim.process import Mailbox

_SEGMENT = 0
_ACK = 1

#: Minimum retransmission timeout, per RFC 6298 spirit (we use 200 ms — the
#: common Linux floor — rather than the RFC's 1 s, which would only make the
#: baseline look worse).
MIN_RTO = 0.200


def _encode(kind: int, seq: int, payload: bytes) -> bytes:
    return bytes([kind]) + seq.to_bytes(8, "big") + payload


def _decode(raw: bytes) -> Tuple[int, int, bytes]:
    return raw[0], int.from_bytes(raw[1:9], "big"), raw[9:]


@dataclass
class _Pending:
    seq: int
    payload: bytes
    destination: Address
    timer: Optional[int] = None
    sent_at: float = 0.0
    retransmits: int = 0


class _StreamState:
    """Per-peer sender/receiver state."""

    def __init__(self) -> None:
        self.next_send_seq = 0
        self.pending: Dict[int, _Pending] = {}
        self.next_deliver_seq = 0
        self.out_of_order: Dict[int, bytes] = {}
        self.srtt: Optional[float] = None


class TcpLikeSocket(DatagramSocket):
    """Reliable in-order message socket with TCP-ish loss recovery."""

    def __init__(self, network: "TcpLikeNetwork", address: Address) -> None:
        self._network = network
        self._loop = network.loop
        self._address = address
        self._raw: SimSocket = network.simnet.socket(address)
        self._raw.mailbox.listener = self._pump
        self.mailbox = Mailbox(network.loop, name=f"tcp:{address}")
        self.stats = TransportStats()
        self._streams: Dict[Address, _StreamState] = {}
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self._address

    def _stream(self, peer: Address) -> _StreamState:
        if peer not in self._streams:
            self._streams[peer] = _StreamState()
        return self._streams[peer]

    def rto(self, peer: Address) -> float:
        """Current retransmission timeout towards ``peer``."""
        srtt = self._stream(peer).srtt
        return max(MIN_RTO, 2.0 * srtt) if srtt is not None else MIN_RTO

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------
    def send(self, payload: bytes, destination: Address) -> None:
        if self._closed:
            raise RuntimeError(f"socket {self._address!r} is closed")
        stream = self._stream(destination)
        seq = stream.next_send_seq
        stream.next_send_seq += 1
        pending = _Pending(seq=seq, payload=payload, destination=destination)
        stream.pending[seq] = pending
        self.stats.record_send(len(payload))
        self._transmit(pending)

    def _transmit(self, pending: _Pending) -> None:
        pending.sent_at = self._loop.clock.now()
        self._raw.send(
            _encode(_SEGMENT, pending.seq, pending.payload), pending.destination
        )
        rto = self.rto(pending.destination)
        pending.timer = self._loop.call_later(
            rto, lambda: self._on_rto(pending)
        )

    def _on_rto(self, pending: _Pending) -> None:
        if self._closed:
            return
        stream = self._stream(pending.destination)
        if pending.seq not in stream.pending:
            return  # already acked
        pending.retransmits += 1
        self._transmit(pending)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Drain raw datagrams (the raw mailbox's listener)."""
        while True:
            envelope = self._raw.mailbox.poll()
            if envelope is None:
                break
            self._on_raw(envelope.payload)

    def _on_raw(self, datagram: Datagram) -> None:
        kind, seq, payload = _decode(datagram.payload)
        peer = datagram.source
        stream = self._stream(peer)
        if kind == _ACK:
            self._on_ack(stream, peer, seq)
            return

        # Data segment: always (re-)ack what we have contiguously.
        if seq == stream.next_deliver_seq:
            self._deliver(peer, payload, datagram.arrived_at)
            stream.next_deliver_seq += 1
            while stream.next_deliver_seq in stream.out_of_order:
                buffered = stream.out_of_order.pop(stream.next_deliver_seq)
                self._deliver(peer, buffered, datagram.arrived_at)
                stream.next_deliver_seq += 1
        elif seq > stream.next_deliver_seq:
            stream.out_of_order[seq] = payload
        # else: duplicate of an already-delivered segment; just re-ack.
        self._raw.send(_encode(_ACK, stream.next_deliver_seq, b""), peer)

    def _on_ack(self, stream: _StreamState, peer: Address, ack_seq: int) -> None:
        now = self._loop.clock.now()
        for seq in [s for s in stream.pending if s < ack_seq]:
            pending = stream.pending.pop(seq)
            if pending.timer is not None:
                self._loop.cancel(pending.timer)
            if pending.retransmits == 0:
                sample = now - pending.sent_at
                stream.srtt = (
                    sample
                    if stream.srtt is None
                    else 0.875 * stream.srtt + 0.125 * sample
                )

    def _deliver(self, peer: Address, payload: bytes, arrived_at: float) -> None:
        self.stats.record_receive(len(payload))
        self.mailbox.deliver(Datagram(payload, peer, arrived_at))

    # ------------------------------------------------------------------
    def receive_all(self) -> List[Datagram]:
        return [env.payload for env in self.mailbox.drain()]

    def close(self) -> None:
        self._closed = True
        self._raw.close()


class TcpLikeNetwork:
    """Factory wiring :class:`TcpLikeSocket` endpoints over a SimNetwork."""

    def __init__(self, loop: EventLoop, seed: int = 0) -> None:
        self.loop = loop
        self.simnet = SimNetwork(loop, seed=seed)

    def socket(self, address: Address) -> TcpLikeSocket:
        return TcpLikeSocket(self, address)

    def connect(
        self,
        a: Address,
        b: Address,
        config: NetemConfig,
        reverse_config: Optional[NetemConfig] = None,
    ) -> None:
        self.simnet.connect(a, b, config, reverse_config)
