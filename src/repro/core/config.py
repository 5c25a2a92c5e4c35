"""Session-wide synchronization parameters.

Defaults reproduce the paper's deployment: 60 FPS games (CFPS), 100 ms local
lag (``BufFrame = 6`` at 60 FPS), one outbound sync message per ~20 ms with
an extra ~5 ms thread-slice delay (§4.2's delay budget).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SyncConfig:
    """Knobs of the sync module, with the paper's values as defaults."""

    #: Expected constant frame rate of the game ("normally 60", §3.2).
    cfps: float = 60.0

    #: Local lag in frames.  The paper: 100 ms at 60 FPS → 6 frames.
    buf_frame: int = 6

    #: Outbound sync messages are batched and flushed on this period
    #: ("each site sends one message every 20ms", §4.2).
    send_interval: float = 0.020

    #: Average producer→sender hand-off delay from the two-thread design
    #: ("assuming the thread time slice is 10ms, there is a 5ms average
    #: delay", §4.2).  The driver adds a uniform delay in
    #: ``[0, 2 * slice_delay]`` to each flush.
    slice_delay: float = 0.005

    #: Whether Algorithm 4 (master/slave rate sync) is active.  Disabled only
    #: by the ablation experiments.
    master_slave_pacing: bool = True

    #: Adaptive local lag (§4.2 discusses and *rejects* this; implemented
    #: so the trade-off can be measured).  When enabled, each site resizes
    #: its own input lag to ``ceil((RTT/2 + ADAPTIVE_MARGIN) · CFPS)``
    #: frames (see ``repro.core.policy.LagTuner``).  Purely local: a site's
    #: lag only affects where its own inputs land, so no agreement is needed.
    adaptive_lag: bool = False

    #: Liveness: a gate blocked longer than this emits a ``Degraded``
    #: effect (drivers freeze presentation and show "waiting for peer").
    soft_stall_s: float = 1.0

    #: Liveness: a gate blocked longer than this suspends it (the stall
    #: ladder's ``suspended`` level + ``PeerLost`` effect) instead of
    #: spinning.
    hard_stall_s: float = 4.0

    #: How long a suspended session waits for the peer to return (heal or
    #: RESUME handshake) before terminating with ``peer-lost``.
    resume_deadline_s: float = 20.0

    #: Give up on the start handshake after this long without the session
    #: becoming established.
    handshake_timeout_s: float = 30.0

    #: While suspended, control/sync retransmission backs off exponentially
    #: (with jitter) from ``liveness.SUSPEND_BACKOFF_INITIAL_S``, doubling
    #: up to this cap.
    suspend_backoff_max_s: float = 1.0

    #: Frame-latency attribution (the ``repro.obs.timeline`` layer).  When
    #: enabled the site advertises FEATURE_TIMELINE in its HELLO, appends a
    #: STAMP annotation to each input-carrying flush, answers pings with
    #: extended (clock-bearing) pongs, and assembles per-frame stage
    #: breakdowns.  Off by default: the annotation costs a few hundred
    #: bytes/second per peer, and the default profile is the bandwidth
    #: baseline the session gates pin.  The knob is deliberately *not*
    #: part of the config digest — the feature negotiates per session, so
    #: a timeline site interoperates with a plain v2 peer.
    timeline: bool = False

    #: Live divergence detection: every this-many frames each site
    #: piggybacks a (frame, state checksum) digest on its outbound sync
    #: flush, so a desync is agreed on within one digest window instead of
    #: at post-session verification.  ``None`` (the default) disables the
    #: feature — the digest costs a few bytes per window and the default
    #: profile is the bandwidth baseline the session gates pin.  Like
    #: ``timeline``, the knob is *not* part of the config digest: the
    #: feature negotiates per session (FEATURE_DIGEST in HELLO/START), so
    #: a digest-enabled site interoperates with a plain v2 peer.
    state_digest_interval: Optional[int] = None

    #: How long one resync episode (freeze → snapshot transfer → restore →
    #: catch-up) may take before the engine gives up and terminates with
    #: ``desync`` (drivers then raise the terminal ``DesyncError`` with a
    #: postmortem bundle).  Bounds the episode so a partition during
    #: resync cannot hang the session.
    resync_deadline_s: float = 10.0

    def __post_init__(self) -> None:
        if self.cfps <= 0:
            raise ValueError(f"cfps must be positive, got {self.cfps}")
        if self.buf_frame < 0:
            raise ValueError(f"buf_frame must be >= 0, got {self.buf_frame}")
        if self.send_interval <= 0:
            raise ValueError("send_interval must be positive")
        if self.slice_delay < 0:
            raise ValueError("slice_delay must be >= 0")
        if self.soft_stall_s <= 0:
            raise ValueError("soft_stall_s must be positive")
        if self.soft_stall_s >= self.hard_stall_s:
            raise ValueError("soft_stall_s must be < hard_stall_s")
        if self.resume_deadline_s <= 0:
            raise ValueError("resume_deadline_s must be positive")
        if self.suspend_backoff_max_s <= 0:
            raise ValueError("suspend_backoff_max_s must be positive")
        if self.state_digest_interval is not None and self.state_digest_interval < 1:
            raise ValueError("state_digest_interval must be >= 1 or None")
        if self.resync_deadline_s <= 0:
            raise ValueError("resync_deadline_s must be positive")

    @property
    def time_per_frame(self) -> float:
        """``TimePerFrame = 1 / CFPS`` (§3.2)."""
        return 1.0 / self.cfps

    @property
    def local_lag(self) -> float:
        """Local lag in seconds (the paper's ~100 ms)."""
        return self.buf_frame * self.time_per_frame

    @property
    def slo_budget(self) -> float:
        """Capture→present budget for the SLO health scorer, in seconds.

        The local-lag design absorbs one-way delay inside ``buf_frame``
        frames; a healthy frame presents within that lag plus a couple of
        frame periods of send batching and pacing slack.
        """
        return self.local_lag + 2.0 * self.time_per_frame

    @property
    def features(self) -> int:
        """Wire feature bits this configuration advertises in HELLO."""
        from repro.core.messages import FEATURE_DIGEST, FEATURE_TIMELINE

        bits = FEATURE_TIMELINE if self.timeline else 0
        if self.state_digest_interval is not None:
            bits |= FEATURE_DIGEST
        return bits

    @classmethod
    def paper_defaults(cls) -> "SyncConfig":
        """The exact configuration of the paper's evaluation."""
        return cls()
