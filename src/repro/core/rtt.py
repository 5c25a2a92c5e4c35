"""Round-trip time estimation and cross-site clock alignment.

Algorithm 4 estimates the one-way latency as ``RTT / 2`` (§3.2).  The paper
does not prescribe a measurement scheme; we use the standard ping/pong
exchange with an exponentially weighted moving average, which is what its
MAME-based implementation would have obtained from its session layer.

The same exchange doubles as an NTP-style clock probe when the session
negotiated FEATURE_TIMELINE: the responder stamps its own clock into the
pong (:meth:`RttEstimator.make_pong` with ``now``), and the pinger's
:class:`ClockAlign` turns (t1, t2, t4) triples into a per-peer offset and
drift estimate that the timeline collector uses to place remote capture
timestamps on the local timebase.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.messages import Ping, Pong

#: EWMA weight for new RTT samples (and clock-offset samples).
RTT_ALPHA = 0.125

#: Depth of the clock filter Algorithm 4 reads through (NTP's eight stages):
#: the least of this many pings (``min_rtt``), and the short memory of master
#: samples ``LockstepSync`` falls back to while its gate waits on the master
#: (it otherwise remembers ``lockstep.MASTER_MEMORY``).  Eight samples are
#: 160 ms, 1.6 periods of the send timer's phase against the frame, and
#: follow a master that slowed down within 160 ms.
CLOCK_FILTER_DEPTH = 8


def to_micros(seconds: float) -> int:
    return int(round(seconds * 1_000_000))


def from_micros(micros: int) -> float:
    return micros / 1_000_000


class RttEstimator:
    """EWMA round-trip estimator fed by PING/PONG exchanges."""

    def __init__(self, site_no: int, session_id: int = 0) -> None:
        self._site_no = site_no
        self._session_id = session_id
        self._srtt: Optional[float] = None
        #: The least of the newest raw samples — the round trip Algorithm 4's
        #: least-delayed master sample travelled; :attr:`rtt` would put the
        #: slave ahead by mean-minus-min one-way delay.
        self.min_rtt = 0.0
        self._recent: Deque[float] = deque(maxlen=CLOCK_FILTER_DEPTH)
        #: Smoothed RTT per responding peer.  The aggregate ``_srtt`` feeds
        #: adaptive lag; the per-peer series feeds the consistency policy,
        #: which must notice *which* link went bad.
        self._peer_srtt: Dict[int, float] = {}
        self._next_seq = 0
        self.samples = 0

    @property
    def rtt(self) -> float:
        """Best current estimate (0.0 until a sample lands)."""
        return self._srtt if self._srtt is not None else 0.0

    @property
    def one_way(self) -> float:
        """The paper's ``RTT / 2`` one-way latency estimate."""
        return self.rtt / 2.0

    def peer_rtt(self, site_no: int) -> float:
        """Smoothed RTT to one peer (aggregate estimate until it answers)."""
        value = self._peer_srtt.get(site_no)
        return value if value is not None else self.rtt

    def make_ping(self, now: float) -> Ping:
        ping = Ping(
            sender_site=self._site_no,
            session_id=self._session_id,
            seq=self._next_seq,
            timestamp_us=to_micros(now),
        )
        self._next_seq += 1
        return ping

    @staticmethod
    def make_pong(ping: Ping, site_no: int, now: Optional[float] = None) -> Pong:
        """Build the echo a receiver returns for ``ping``.

        With ``now`` the pong also carries the responder's clock (the
        NTP t2≈t3 reading) — only pass it when the session negotiated
        FEATURE_TIMELINE.
        """
        return Pong(
            sender_site=site_no,
            session_id=ping.session_id,
            seq=ping.seq,
            echo_timestamp_us=ping.timestamp_us,
            remote_timestamp_us=None if now is None else to_micros(now),
        )

    def on_pong(self, pong: Pong, now: float) -> Optional[float]:
        """Fold one sample in; returns it (or None if garbage/negative)."""
        sample = now - from_micros(pong.echo_timestamp_us)
        if sample < 0:
            return None
        alpha = RTT_ALPHA
        self._srtt = (
            sample if self._srtt is None else (1 - alpha) * self._srtt + alpha * sample
        )
        peer = pong.sender_site
        previous = self._peer_srtt.get(peer)
        self._peer_srtt[peer] = (
            sample if previous is None else (1 - alpha) * previous + alpha * sample
        )
        self._recent.append(sample)
        self.min_rtt = min(self._recent)
        self.samples += 1
        return sample


class ClockAlign:
    """Per-peer NTP-style clock offset and drift estimator.

    One (t1, t2, t4) triple gives the classic offset sample
    ``θ = t2 − (t1 + t4) / 2`` with error bounded by half the *asymmetry*
    of the path, not its delay.  Queuing jitter is asymmetric almost by
    definition, so raw samples are filtered the way NTP's clock filter
    does: only exchanges whose round-trip delay sits near the best delay
    ever observed are folded into the estimate — a delayed pong spent its
    extra time in one direction's queue and would bias θ by half that
    queue time.  Accepted samples feed an EWMA offset plus a long-baseline
    drift slope (seconds of offset per second of elapsed peer time).
    """

    #: Accept samples within this factor of the observed minimum delay…
    _DELAY_FACTOR = 1.25
    #: …plus a small absolute allowance for timer granularity.
    _DELAY_SLACK_S = 0.002

    def __init__(self) -> None:
        self._offset: Optional[float] = None
        self._min_delay: Optional[float] = None
        self._drift: float = 0.0
        self._first_accept: Optional[Tuple[float, float]] = None
        self.samples = 0
        self.rejected = 0

    @property
    def offset(self) -> float:
        """Peer clock minus local clock, seconds (0.0 until a sample lands)."""
        return self._offset if self._offset is not None else 0.0

    @property
    def drift(self) -> float:
        """Estimated offset slope in s/s (0.0 until the baseline is long)."""
        return self._drift

    @property
    def aligned(self) -> bool:
        """True once at least one filtered sample has been folded in."""
        return self._offset is not None

    def to_local(self, remote_time: float) -> float:
        """Map a peer-clock reading onto the local timebase."""
        return remote_time - self.offset

    def on_sample(self, t1: float, t2: float, t4: float) -> Optional[float]:
        """Fold one exchange; returns the raw θ sample, or None if filtered.

        ``t1``/``t4`` are local clock readings (ping sent, pong received);
        ``t2`` is the responder's clock carried in the extended pong.
        """
        delay = t4 - t1
        if delay < 0:
            return None
        theta = t2 - (t1 + t4) / 2.0
        if self._min_delay is None or delay < self._min_delay:
            self._min_delay = delay
        elif delay > self._min_delay * self._DELAY_FACTOR + self._DELAY_SLACK_S:
            self.rejected += 1
            return None
        if self._offset is None:
            self._offset = theta
            self._first_accept = (t4, theta)
        else:
            self._offset += RTT_ALPHA * (theta - self._offset)
            assert self._first_accept is not None
            elapsed = t4 - self._first_accept[0]
            if elapsed > 1.0:
                self._drift = (self._offset - self._first_accept[1]) / elapsed
        self.samples += 1
        return theta
