"""The sans-IO protocol engine: Algorithm 1 as events in, effects out.

The paper's frame loop::

    repeat
        BeginFrameTiming();
        I  = GetInput();
        I' = SyncInput(I, Frame);
        S  = Transition(I', S);
        translate and present S;
        EndFrameTiming();
        Frame++;
    until end of game;

Three layers live here:

* :class:`SiteRuntime` — the sans-IO aggregate of one site's protocol state
  (session control, lockstep, pacer, RTT estimator, machine, input source,
  trace, and the :class:`~repro.core.recovery.Recovery` part).  Its
  dispatch table hands each received message to the part that owns its
  type; the handlers update state and return reply messages.  It also
  builds outbound sync messages.
* :class:`SiteEngine` — the orchestration that used to be copy-pasted into
  every driver: the start handshake, the send pump (the paper's 20 ms
  outbound batching and ~5 ms thread-slice delay, §4.2), the ping pump, the
  frame loop with its SyncInput gate, and the linger phase.  Each wait on
  a peer is re-sent and ended by the part that knows it (session control,
  recovery, the stall ladder).  The engine is a pure state machine:
  drivers feed it the datagrams that arrived and the time that passed,
  and apply the :class:`Effect` objects it returns (datagrams
  to send, frames to present).  It contains no clocks, no sockets and no
  sleeping.  Which ``SyncInput`` the loop runs is its ``consistency`` part
  (:class:`repro.core.rollback.SyncInput`), and nothing else decides it.
* The drivers — :class:`repro.core.vm.DistributedVM` (discrete-event) and
  :class:`repro.core.aio.AioSite` (asyncio over real UDP, many sessions
  per process) — are thin shells that run an engine the caller built:
  they move bytes and time between their runtime and the engine.

``Transition`` is a black box: any object satisfying :class:`GameMachine`
works, and the sync layer never inspects it (the paper's "game
transparency").

Event/effect protocol
---------------------

Drivers interact with the engine through exactly two entry points::

    effects = engine.poll(now, datagrams)  # a wake-up: these arrived, and time
                                           # passed (a timer may be due)
    effects = engine.handle(Shutdown(now)) # stop now

and one scheduling query, ``engine.next_deadline()`` — the earliest time at
which ``poll`` must be called again.  All ``now`` values must come from one
monotonically non-decreasing clock per engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Protocol, Tuple, Union

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, InputSource
from repro.core.liveness import (
    DEGRADED,
    SUSPENDED,
    Degraded,
    PeerLiveness,
    PeerLost,
    Resumed,
    StallLadder,
)
from repro.core.lockstep import LockstepSync
from repro.core.messages import (
    FEATURE_TIMELINE,
    MAX_BATCH_BYTES,
    DecodeError,
    Message,
    Ping,
    Pong,
    Sync,
    decode_all,
    encode_packet,
    from_stamp_ticks,
    pack_batch,
    stamp_ticks,
    uvarint_len,
)
from repro.core.recovery import REQUEST_INTERVAL, REQUEST_TIMEOUT, Recovery, Replies
from repro.core.pacing import FramePacer
from repro.core.rtt import ClockAlign, RttEstimator, from_micros
from repro.core.session import SessionControl, SessionError
from repro.metrics.recorder import FrameTrace
from repro.metrics.timeserver import encode_report
from repro.net.transport import Datagram
from repro.obs.site import SiteMetrics
from repro.obs.slo import SloScorer
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EventTrace

if TYPE_CHECKING:  # rollback and policy import this module: it imports them late
    from repro.core.rollback import SyncInput


class GameMachine(Protocol):
    """What the sync layer requires of a game: a deterministic black box."""

    def step(self, input_word: int) -> None:
        """Advance exactly one frame under ``input_word``."""

    def checksum(self) -> int:
        """A digest of the complete machine state."""

    def save_state(self) -> bytes:
        """Serialize the full state (for late joiners)."""

    def load_state(self, blob: bytes) -> None:
        """Restore a state produced by :meth:`save_state`."""


@dataclass(frozen=True)
class SitePeer:
    """Address book entry: where a given site number lives."""

    site_no: int
    address: str


class SiteRuntime:
    """One site's complete sans-IO protocol state."""

    def __init__(
        self,
        config: SyncConfig,
        site_no: int,
        assignment: InputAssignment,
        machine: GameMachine,
        source: InputSource,
        peers: List[SitePeer],
        game_id: str = "game",
        session_id: int = 1,
        handshake_sites: Optional[List[int]] = None,
    ) -> None:
        self.config = config
        self.site_no = site_no
        self.assignment = assignment
        self.machine = machine
        self.source = source
        self.game_id = game_id
        self.session_id = session_id
        self.address_of: Dict[int, str] = {p.site_no: p.address for p in peers}
        self.peer_sites: List[int] = [
            p.site_no for p in peers if p.site_no != site_no
        ]

        self.lockstep = LockstepSync(config, site_no, assignment, session_id)
        self.pacer = FramePacer(config, site_no)
        self.rtt = RttEstimator(site_no, session_id)
        self.trace = FrameTrace(site_no)
        #: Telemetry: counters/histograms plus the protocol event ring.
        self.metrics = SiteMetrics(site_no, session_id)
        self.events = EventTrace()
        self.session = SessionControl(
            config,
            site_no,
            num_sites=len(assignment),
            game_id=game_id,
            session_id=session_id,
            peer_addresses=self.address_of,
            expected_sites=handshake_sites,
            trace=lambda kind, now, **detail: self.events.emit(
                kind, now, self.frame, **detail
            ),
        )
        #: Per-peer NTP-style clock alignment, fed by extended pongs.
        self.clocks: Dict[int, ClockAlign] = {
            site: ClockAlign() for site in self.peer_sites
        }
        #: Frame-latency attribution (hooks are no-ops unless
        #: ``config.timeline``; wire annotations additionally require the
        #: feature to have been *negotiated* for the session).
        self.timeline = TimelineCollector(config.time_per_frame)
        self.slo = SloScorer(config)
        #: Last-heard timestamps per peer, fed by every authenticated
        #: datagram (no dedicated heartbeat; see :mod:`repro.core.liveness`).
        self.liveness = PeerLiveness(self.peer_sites)
        #: Frame counter of Algorithm 1.
        self.frame = 0
        #: Lazily-built hysteretic lag tuner (``repro.core.policy``).
        self._lag_tuner = None
        #: State transfer and desync recovery: late join, resume, resync.
        self.recovery = Recovery(self)
        #: Message dispatch: every type the codec decodes (BATCH is
        #: flattened first) has one handler, registered by the part that
        #: owns it.  A handler returns its (message, destination) replies.
        self.handlers: Dict[type, Callable[..., Replies]] = {
            Sync: self._on_sync,
            Ping: self._on_ping,
            Pong: self._on_pong,
            **dict.fromkeys(SessionControl.MESSAGES, self._on_session),
            **self.recovery.handlers(),
        }

    @property
    def timeline_negotiated(self) -> bool:
        """True when FEATURE_TIMELINE was granted for this session —
        the precondition for emitting STAMPs and extended pongs (a plain
        v2 peer's decoder rejects any batch containing an unknown type)."""
        return bool(self.session.session_features & FEATURE_TIMELINE)

    # ------------------------------------------------------------------
    # Receive path (shared by all drivers)
    # ------------------------------------------------------------------
    def handle_datagram(
        self, payload: bytes, arrived_at: float, now: float
    ) -> List[Tuple[Message, str]]:
        """Process one datagram; returns (message, destination) replies.

        A BATCH container is flattened and each member handled in order.
        Malformed datagrams (garbage, truncation, a legacy v1 peer) never
        crash — they leave a traced ``decode_error`` record (which
        ``net_decode_errors`` counts), then are dropped.
        """
        try:
            messages = decode_all(payload)
        except DecodeError as exc:
            self.events.emit("decode_error", now, self.frame, error=str(exc))
            return []
        self.metrics.net_bytes_rx.inc(len(payload))
        replies: List[Tuple[Message, str]] = []
        for message in messages:
            replies.extend(self.handle_message(message, arrived_at, now))
        return replies

    def handle_message(
        self, message: Message, arrived_at: float, now: float
    ) -> Replies:
        """Dispatch one message to its owner's handler; returns the replies.

        Liveness and the ``rx`` record belong to the table, not to any
        handler: every message from a peer of this session refreshes that
        peer's last-heard time, and every message leaves one record (a
        SYNC's also carries its window and its ack for us).
        """
        sender = message.sender_site
        if sender != self.site_no and message.session_id == self.session_id:
            self.liveness.heard(sender, now)
        kind = type(message)
        if kind is Sync:
            self.events.emit(
                "rx",
                now,
                self.frame,
                msg="Sync",
                peer=sender,
                first=message.first_frame,
                last=message.last_frame,
                ack=message.ack,
            )
        else:
            self.events.emit("rx", now, self.frame, msg=kind.__name__, peer=sender)
        return self.handlers[kind](message, arrived_at, now)

    def _on_sync(self, message: Sync, arrived_at: float, now: float) -> Replies:
        """Lockstep's window, plus the timeline points it delivers."""
        sender_site = message.sender_site
        in_range = 0 <= sender_site < self.lockstep.num_sites
        prev_covered = self.lockstep.last_rcv_frame[sender_site] if in_range else 0
        try:
            # on_sync resolves an implied-mask SYNC against the sender's
            # input assignment and refuses what no correct peer sends (an
            # ack past our inputs, a cell contradicting a held one); each
            # is handled like any other decode failure.
            self.lockstep.on_sync(message, arrived_at)
        except DecodeError as exc:
            self.events.emit("decode_error", now, self.frame, error=str(exc))
            return []
        if self.config.timeline and in_range and sender_site != self.site_no:
            new_covered = self.lockstep.last_rcv_frame[sender_site]
            if new_covered > prev_covered:
                # The frames this window *newly* covered: the datagram
                # that first covers a frame is the one that delivered
                # it, so its arrival/decode times are that frame's
                # p2/p3 timeline points.
                self.timeline.on_remote_frames(
                    sender_site, prev_covered + 1, new_covered, arrived_at, now
                )
            stamp = message.stamp
            if stamp is not None:
                align = self.clocks.get(sender_site)
                if align is not None and align.aligned:
                    # Map the sender's flush clock onto our timebase;
                    # the capture delta back-dates to the pad sample.
                    send_local = align.to_local(from_stamp_ticks(stamp[0]))
                    self.timeline.on_stamp(
                        sender_site,
                        message.last_frame,
                        send_local,
                        send_local - from_stamp_ticks(stamp[1]),
                    )
        return []

    def _on_ping(self, message: Ping, arrived_at: float, now: float) -> Replies:
        # Under FEATURE_TIMELINE the pong carries our clock too,
        # upgrading the exchange to a full NTP-style offset probe.
        pong = RttEstimator.make_pong(
            message, self.site_no, now=now if self.timeline_negotiated else None
        )
        destination = self.address_of.get(message.sender_site)
        return [] if destination is None else [(pong, destination)]

    def _on_pong(self, message: Pong, arrived_at: float, now: float) -> Replies:
        self.rtt.on_pong(message, now)
        align = self.clocks.get(message.sender_site)
        if message.remote_timestamp_us is not None and align is not None:
            align.on_sample(
                from_micros(message.echo_timestamp_us),
                from_micros(message.remote_timestamp_us),
                now,
            )
        if self.config.adaptive_lag and self.rtt.samples:
            self._adapt_lag(now)
        return []

    def _on_session(self, message: Message, arrived_at: float, now: float) -> Replies:
        try:
            return self.session.on_message(message, now)
        except SessionError as exc:
            # A handshake we must refuse: a peer with a different game
            # image or an incompatible SyncConfig — or line noise whose
            # bit flips happen to parse as a control message.  Either
            # way the remote bytes must not crash this site: refuse
            # observably (no WELCOME is ever sent, so a genuinely
            # mismatched joiner times out its handshake), like the
            # legacy-wire-version rejection in ``decode``.
            self.events.emit(
                "session_reject",
                now,
                self.frame,
                peer=message.sender_site,
                error=str(exc),
            )
            return []

    # ------------------------------------------------------------------
    # Send path — everything returns (message, destination) pairs; the
    # engine's outbox encodes and coalesces them once per pump.
    # ------------------------------------------------------------------
    def sync_broadcast(
        self, now: float, force: bool = False
    ) -> List[Tuple[Message, str]]:
        """The flush: per-peer sd messages (lines 7–11, N-site form).

        ``now`` is required (it lands in trace records and stamp clocks,
        so a defaulted zero would corrupt the shared timebase).
        """
        out: List[Tuple[Message, str]] = []
        send_ticks = stamp_ticks(now) if self.timeline_negotiated else None
        for peer, message in self.lockstep.build_all(force=force).items():
            self.events.emit(
                "tx",
                now,
                self.frame,
                msg="Sync",
                peer=peer,
                first=message.first_frame,
                last=message.last_frame,
            )
            if send_ticks is not None and message.input_count:
                # Annotate the window with our flush clock and the age of
                # its newest input (two uvarints inside the SYNC itself).
                captured = self.timeline.capture_time(message.last_frame)
                message.annotate(
                    send_ticks,
                    stamp_ticks(now - captured) if captured is not None else 0,
                )
            out.append((message, self.address_of[peer]))
        return out

    def ping_messages(self, now: float) -> List[Tuple[Message, str]]:
        """One RTT probe per peer."""
        out: List[Tuple[Message, str]] = []
        for site in self.peer_sites:
            self.events.emit("tx", now, self.frame, msg="Ping", peer=site)
            out.append((self.rtt.make_ping(now), self.address_of[site]))
        return out

    def _adapt_lag(self, now: float) -> None:
        """Resize local lag to the current one-way estimate (§4.2's rejected
        alternative, implemented for the ablation).

        The raw proposal runs through a hysteretic :class:`LagTuner`, so RTT
        jitter cannot make the lag oscillate.
        """
        tuner = self._lag_tuner
        if tuner is None:
            from repro.core.policy import LagTuner  # late: see the imports
            tuner = self._lag_tuner = LagTuner(self.config)
        needed = tuner.propose(now, self.rtt.one_way, self.lockstep.local_lag_frames)
        if needed is None:
            return
        before = self.lockstep.local_lag_frames
        self.lockstep.set_local_lag(needed)
        if needed != before:
            self.events.emit(
                "lag", now, self.frame, **{"from": before, "to": needed}
            )

    # ------------------------------------------------------------------
    # Frame-loop steps (Algorithm 1, minus the waiting)
    # ------------------------------------------------------------------
    def begin_frame(self, now: float, late: float = 0.0) -> float:
        """BeginFrameTiming: Algorithm 4; returns the sync adjust applied."""
        self.trace.record_begin(now)
        self.metrics.on_begin_frame(now)
        return self.pacer.begin_frame(
            now, self.frame, self.lockstep.master_sample, self.rtt.min_rtt, late
        )

    def get_and_buffer_input(self, now: Optional[float] = None) -> None:
        """GetInput + Algorithm 2 lines 1–5.

        Sources must produce bits already positioned in the full input word
        (wrap pad-byte sources in :class:`~repro.core.inputs.PadSource`).
        ``now`` feeds the timeline's capture record (the p0 a STAMP will
        later carry to peers); None skips that bookkeeping.
        """
        self.lockstep.buffer_local_input(self.frame, self.source.get(self.frame))
        if now is not None and self.config.timeline:
            self.timeline.on_local_capture(
                self.lockstep.last_rcv_frame[self.site_no], now
            )

    def on_gate_open(self, now: float) -> None:
        """Timeline p4: SyncInput released the current frame."""
        if self.config.timeline:
            self.timeline.on_gate_open(self.frame, now)

    def on_present(self, frame: int, now: float) -> None:
        """Timeline p5/p6: ``frame`` committed — finalize its record.

        Analysis (stage histograms, SLO scoring) is deferred to
        :meth:`drain_timeline` so the frame loop only pays for record
        assembly; the length check is a backstop for sessions nobody
        scrapes for half a minute.
        """
        if not self.config.timeline:
            return
        self.timeline.on_present(frame, now)
        if len(self.timeline.fresh) >= 2048:
            self.drain_timeline()

    def drain_timeline(self) -> None:
        """Feed finalized records to the histograms and the SLO scorer.

        Called at scrape time (``SiteMetrics.refresh``) rather than per
        frame — the flight-recorder split: the hot path appends, the
        scrape path analyzes.  Order is preserved, so the SLO window sees
        frames exactly as a per-frame feed would have.
        """
        fresh = self.timeline.fresh
        if not fresh:
            return
        observe = self.metrics.on_frame_latency
        score = self.slo.observe
        for record in fresh:
            observe(record)
            score(record)
        del fresh[:]

    def run_transition(
        self, merged_input: int, stall: float, sync_adjust: float, commit: bool = True
    ) -> None:
        """Transition + present: step the machine and record the trace."""
        self.machine.step(merged_input)
        checksum = self.machine.checksum()
        self.trace.record_frame(
            merged_input,
            checksum,
            stall,
            sync_adjust,
            lag=self.lockstep.local_lag_frames,
        )
        if commit:
            self.metrics.on_commit(stall, sync_adjust)
        self.recovery.note_own_digest(self.frame, checksum)
        self.frame += 1

    def replay_transition(self, merged_input: int, now: float) -> None:
        """One frame of resync replay: :meth:`run_transition` without the
        commit histograms (replayed frames were already counted when they
        first executed), after a synthetic begin record so the trace
        arrays stay aligned."""
        self.trace.record_begin(now)
        self.run_transition(merged_input, 0.0, 0.0, commit=False)

    # ------------------------------------------------------------------
    def all_inputs_acked(self) -> bool:
        """True when every peer has acked all our buffered inputs."""
        mine = self.lockstep.last_rcv_frame[self.site_no]
        return all(
            self.lockstep.last_ack_frame[s] >= mine for s in self.peer_sites
        )


# ----------------------------------------------------------------------
# The one event: what a driver tells the engine besides ``poll``
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shutdown:
    """Stop the engine now: clear all timers and emit ``Finished``."""

    now: float


# ----------------------------------------------------------------------
# Effects: what the engine tells a driver to do
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    """Transmit ``payload`` to ``destination``."""

    payload: bytes
    destination: str


@dataclass(frozen=True)
class Present:
    """A frame committed: render ``frame`` executed under ``merged_input``."""

    frame: int
    merged_input: int


@dataclass(frozen=True)
class Stall:
    """SyncInput is blocking ``frame`` on the listed gating sites (§4.1's
    freeze).  Emitted once per blocked frame."""

    frame: int
    waiting_on: Tuple[int, ...] = field(default=())


@dataclass(frozen=True)
class Finished:
    """The engine is done (frames executed and linger elapsed, shutdown,
    handshake timeout, or peer loss — see ``SiteEngine.termination``);
    no further events are needed."""

    frame: int


Effect = Union[Send, Present, Stall, Degraded, PeerLost, Resumed, Finished]


# ----------------------------------------------------------------------
# Timer kinds and phases
# ----------------------------------------------------------------------
TIMER_FLUSH = "flush"  # the 20 ms outbound batch, §4.2 slice delay included
TIMER_PING = "ping"  # RTT probe period
TIMER_GATE = "gate"  # SyncInput poll while blocked
TIMER_FRAME = "frame"  # EndFrameTiming wait / frame-loop start delay
TIMER_LINGER = "linger"  # catch-up / linger bound
# A wait on a peer (the handshake, the recover phase, a suspended gate) is
# these two; its owner says what they do.  Both sort after the five kinds
# above, and retry before timeout, so simultaneous deadlines fire in order.
TIMER_RETRY = "retry"  # retransmit what the wait is waiting for
TIMER_TIMEOUT = "timeout"  # give up on the peer, by a named termination

PHASE_IDLE = "idle"
PHASE_HANDSHAKE = "handshake"
PHASE_GATE = "gate"  # SyncInput blocked; the stall ladder may suspend it
PHASE_FRAME_WAIT = "frame-wait"
PHASE_LINGER = "linger"
PHASE_DONE = "done"
PHASE_CATCHUP = "catchup"  # frames presented; confirming those in flight
PHASE_RECOVER = "recover"  # acquiring a donor's state, or a resync episode

#: Ping period for RTT estimation, in seconds.
PING_INTERVAL = 0.5


def _chunk_for_batch(
    items: List[Tuple[int, bytes]],
) -> List[List[Tuple[int, bytes]]]:
    """Split one peer's (type_id, body) items into ≤MAX_BATCH_BYTES chunks.

    Greedy in queue order, which is deterministic (the outbox preserves
    insertion order).  A single item larger than the cap gets a chunk of
    its own — it simply goes out as a standalone datagram.
    """
    chunks: List[List[Tuple[int, bytes]]] = []
    current: List[Tuple[int, bytes]] = []
    size = 0
    for type_id, body in items:
        member = 1 + uvarint_len(len(body)) + len(body)
        if current and size + member > MAX_BATCH_BYTES:
            chunks.append(current)
            current, size = [], 0
        current.append((type_id, body))
        size += member
    if current:
        chunks.append(current)
    return chunks


class SiteEngine:
    """Drives one :class:`SiteRuntime` through a whole session, sans IO.

    The engine owns every wait the old drivers hand-coded — handshake
    retries, the send/ping pumps, the SyncInput gate, frame pacing and the
    linger phase — expressed as named timers; a wait on a peer is re-sent
    and ended by the part that owns it.  Drivers feed events and apply
    effects; see the module docstring for the contract.

    A site enters the session by the start handshake, or — given a
    ``donor_site`` — by acquiring that donor's savestate: a late joiner's
    STATE_REQUEST, or with ``last_acked_frame`` (the last own frame the
    donor was seen to ack) a crashed site's RESUME; see
    :mod:`repro.core.recovery`.
    """

    #: SyncInput re-poll period while blocked; bounds how long a site waits
    #: when a wakeup was lost (the peer's pump re-sends every 20 ms anyway).
    SYNC_POLL = 0.004

    def __init__(
        self,
        runtime: SiteRuntime,
        max_frames: int,
        consistency: Optional[SyncInput] = None,
        *,
        frame_compute_time: float = 0.0,
        linger: float = 5.0,
        seed: int = 0,
        time_server_address: Optional[str] = None,
        frame_loop_delay: float = 0.0,
        timer_granularity: float = 0.0,
        donor_site: Optional[int] = None,
        last_acked_frame: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.max_frames = max_frames
        if consistency is None:
            from repro.core.rollback import SyncInput  # late: see the imports
            consistency = SyncInput()
        self.consistency = consistency
        self.frame_compute_time = frame_compute_time
        #: How long to keep pumping after the last frame so peers still
        #: waiting on our inputs (or retransmissions) can finish.
        self.linger = linger
        self.time_server_address = time_server_address
        #: Extra delay between session start and the first frame — models
        #: §3.2's "two sites cannot begin at exactly the same time" beyond
        #: what the start protocol already bounds (used by the Algorithm 4
        #: ablation).
        self.frame_loop_delay = frame_loop_delay
        #: OS sleep overshoot bound for the send pump's flush period.  The
        #: paper's testbed is Windows XP (~10 ms timer granularity); a late
        #: flush delays the whole unacked-input window, eating into the
        #: §4.2 latency budget.
        self.timer_granularity = timer_granularity
        #: State transfer: ``donor_site`` is the site whose savestate this
        #: one acquires (None: handshake), ``last_acked_frame`` the RESUME
        #: cookie (None: a late join's STATE_REQUEST).
        self.recovery = runtime.recovery
        self.recovery.attach(self.consistency, donor_site, last_acked_frame)
        self._rng = random.Random((seed << 8) ^ runtime.site_no)
        self.ladder = StallLadder(runtime, self._rng)

        self.phase = PHASE_IDLE
        #: True once every frame has executed (the linger phase may still
        #: be pumping retransmissions for peers).
        self.frames_complete = False
        #: True once ``Finished`` has been emitted.
        self.done = False

        #: Why the engine finished: "completed", "shutdown", "peer-lost",
        #: "handshake-timeout", "desync" or (a joiner/resumer whose donor
        #: stayed silent) "acquire-timeout"; None while running.
        self.termination: Optional[str] = None

        self._observed_phase = self.phase
        self._timers: Dict[str, float] = {}
        self._earliest = 0.0
        self._stall_started = 0.0
        self._stalled = False
        self._sync_adjust = 0.0
        self._linger_deadline = 0.0
        #: The open wait's owner: ``retry(now)`` → (what to re-send, next
        #: retry time), ``give_up(now)`` → the termination's name.
        self._wait = None

        #: Outbox: (message, destination) pairs queued during the current
        #: pump.  ``_flush_outbox`` drains it exactly once per pump,
        #: coalescing everything bound for one peer into a single BATCH
        #: datagram.
        self._outbox: List[Tuple[Message, str]] = []
        self.consistency.attach(self)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def start(self, now: float) -> List[Effect]:
        """Begin the session at ``now`` — by the start handshake, or by
        acquiring the donor's state — and return the first effects."""
        if self.recovery.donor_site is None:
            self.phase = PHASE_HANDSHAKE
            self._wait_on(
                self.runtime.session,
                now,
                now + self.runtime.config.handshake_timeout_s,
            )
        else:
            self.phase = PHASE_RECOVER
            self._wait_on(self.recovery, now, now + REQUEST_TIMEOUT)
        self._arm_send(now)
        self._set(TIMER_PING, now)
        return self._pump(now, [])

    def handle(self, event: Shutdown) -> List[Effect]:
        """Feed a :class:`Shutdown`; returns the effects it triggered."""
        if self.done:
            return []
        self._outbox.clear()
        effects: List[Effect] = []
        self._terminate("shutdown", event.now, effects)
        self._observe(event.now, effects)
        return effects

    def poll(self, now: float, datagrams: Iterable[Datagram] = ()) -> List[Effect]:
        """One wake-up: absorb what was received since the last one (state
        updates now, replies to the outbox), then fire any timers due at
        ``now`` — one pump however many datagrams arrived."""
        if self.done:
            return []
        liveness = self.runtime.liveness
        mark = liveness.mark
        for datagram in datagrams:
            metrics = self.runtime.metrics
            metrics.datagrams_received.inc()
            metrics.bytes_received.inc(len(datagram.payload))
            self._outbox.extend(
                self.runtime.handle_datagram(
                    datagram.payload, datagram.arrived_at, now
                )
            )
        if liveness.mark != mark and self.ladder.level is SUSPENDED:
            retry_at = self.ladder.heard(now)
            if retry_at is not None:
                self._set(TIMER_RETRY, retry_at)
        return self._pump(now, [])

    @property
    def joined_at_frame(self) -> Optional[int]:
        """First frame an acquiring site executed (None until it has)."""
        return self.recovery.joined_at

    def next_deadline(self) -> Optional[float]:
        """Earliest armed timer deadline, or None when the engine is done."""
        return self._earliest if self._timers else None

    def snapshot(self) -> dict:
        """Introspection: the registry snapshot plus live engine state.

        Reads the catalog's sync-layer and trace totals off the runtime,
        so this is the one call every driver's snapshot API and the
        postmortem builder share.
        """
        snap = self.runtime.metrics.snapshot(self.runtime)
        snap["phase"] = self.phase
        snap["frame"] = self.runtime.frame
        snap["done"] = self.done
        snap["termination"] = self.termination
        snap["trace_records"] = len(self.runtime.events)
        if self.runtime.config.timeline:
            snap["slo"] = self.runtime.slo.snapshot()
            snap["timeline_records"] = len(self.runtime.timeline.ring)
        return snap

    # ------------------------------------------------------------------
    # Timer plumbing
    # ------------------------------------------------------------------
    # ``_earliest`` is min(_timers.values()) kept as state (meaningless
    # while no timer is armed): a wake-up reads it instead of scanning,
    # and only a change to the timer that holds it costs a scan.
    def _set(self, kind: str, deadline: float) -> None:
        timers = self._timers
        held = timers.get(kind)
        timers[kind] = deadline
        if len(timers) == 1 or deadline <= self._earliest:
            self._earliest = deadline
        elif held == self._earliest:
            self._earliest = min(timers.values())

    def _clear(self, kind: str) -> None:
        timers = self._timers
        if timers.pop(kind, None) == self._earliest and timers:
            self._earliest = min(timers.values())

    def _pump(self, now: float, effects: List[Effect]) -> List[Effect]:
        """Fire due timers in (deadline, kind) order, then run the stages
        that have something to do: a wake-up costs what became due."""
        timers = self._timers
        while timers and self._earliest <= now and not self.done:
            due, kind = self._earliest, None
            for k, deadline in timers.items():
                if deadline == due and (kind is None or k < kind):
                    kind = k
            del timers[kind]
            if timers:
                self._earliest = min(timers.values())
            self._on_timer(kind, now, effects, now - due)
        if not self.done:
            if self.recovery.divergences:
                self._check_divergence(now, effects)
            # FRAME_WAIT has no step: only its timer ends it.
            if self.phase != PHASE_FRAME_WAIT and not self.done:
                self._advance(now, effects)
        if self._outbox:
            self._flush_outbox(effects)
        if effects or self.phase != self._observed_phase:
            self._observe(now, effects)
        return effects

    # ------------------------------------------------------------------
    # Outbox: coalesce, emit
    # ------------------------------------------------------------------
    def _flush_outbox(self, effects: List[Effect]) -> None:
        """Drain the outbox into ``Send`` effects, one datagram per peer.

        Every queued message's body is encoded exactly once.  Messages
        sharing a (destination, sender, session) leave as one BATCH
        container — the tick-level coalescing that merges a SYNC, a PONG
        and any control retransmission bound for the same peer into a
        single datagram.  Oversized members (a STATE_SNAPSHOT, typically)
        overflow into standalone datagrams via the MAX_BATCH_BYTES cap.
        """
        pending, self._outbox = self._outbox, []
        metrics = self.runtime.metrics
        groups: Dict[Tuple[str, int, int], List[Tuple[int, bytes]]] = {}
        for message, destination in pending:
            key = (destination, message.sender_site, message.session_id)
            groups.setdefault(key, []).append(
                (message.TYPE_ID, message._encode_body())
            )
        for (destination, sender, session), items in groups.items():
            for chunk in _chunk_for_batch(items):
                if len(chunk) == 1:
                    type_id, body = chunk[0]
                    payload = encode_packet(type_id, sender, session, body)
                else:
                    payload = pack_batch(sender, session, chunk)
                    metrics.net_batch_coalesced.inc()
                metrics.net_bytes_tx.inc(len(payload))
                effects.append(Send(payload, destination))

    def _observe(self, now: float, effects: List[Effect]) -> None:
        """Telemetry funnel: every effect batch passes through here once.

        Counting ``Send``/``Present``/``Stall`` effects centrally keeps the
        phase machine itself observation-free; phase transitions are
        detected by comparison, so every assignment to ``phase`` is
        captured without a hook of its own.
        """
        runtime = self.runtime
        metrics = runtime.metrics
        for effect in effects:
            kind = type(effect)
            if kind is Send:
                metrics.datagrams_sent.inc()
                metrics.bytes_sent.inc(len(effect.payload))
            elif kind is Present:
                metrics.frames.inc()
            elif kind is Stall:
                runtime.events.emit(
                    "stall",
                    now,
                    effect.frame,
                    waiting_on=list(effect.waiting_on),
                )
        if self.phase != self._observed_phase:
            runtime.events.emit(
                "phase",
                now,
                runtime.frame,
                **{"from": self._observed_phase, "to": self.phase},
            )
            self._observed_phase = self.phase

    def _on_timer(
        self, kind: str, now: float, effects: List[Effect], late: float
    ) -> None:
        """``late`` is how long after the timer's deadline ``now`` is."""
        if kind != TIMER_GATE:
            # GATE re-fires every few ms while blocked and would flood the
            # ring; the Stall record already marks the blockage.
            self.runtime.events.emit(
                "timer", now, self.runtime.frame, timer=kind
            )
        # The three kinds of a running frame loop first, then the rest.
        if kind == TIMER_FRAME:
            if self.phase == PHASE_FRAME_WAIT:
                self._frame_cycle(now, effects, late)
        elif kind == TIMER_FLUSH:
            self._flush(now, effects)
            self._arm_send(now)
        elif kind == TIMER_PING:
            self._outbox.extend(self.runtime.ping_messages(now))
            interval = PING_INTERVAL
            if self.runtime.timeline_negotiated and any(
                not align.aligned for align in self.runtime.clocks.values()
            ):
                # Clock alignment bootstraps off PONG timestamps; probe
                # fast until every peer has yielded a first sample (the
                # very first exchange can race START and come back plain),
                # then settle to the steady cadence.
                interval = min(interval, 0.1)
            self._set(TIMER_PING, now + interval)
        elif kind == TIMER_RETRY:
            messages, retry_at = self._wait.retry(now)
            self._outbox.extend(messages)
            self._set(TIMER_RETRY, retry_at)
        elif kind == TIMER_TIMEOUT:
            self._terminate(self._wait.give_up(now), now, effects)
        # TIMER_GATE, TIMER_LINGER: _advance re-checks the gate, or the
        # catch-up / linger deadline.

    def _arm_send(self, now: float) -> None:
        """The paper's batching sender: flush every ``send_interval``, with
        the sender thread's sleep landing late on a coarse OS timer and the
        flush a thread slice after it wakes (§4.2) — one timer, both draws."""
        config = self.runtime.config
        period = config.send_interval
        if self.timer_granularity > 0:
            period += self._rng.uniform(0.0, self.timer_granularity)
        due = now + period
        if config.slice_delay > 0:
            due += self._rng.uniform(0.0, 2.0 * config.slice_delay)
        self._set(TIMER_FLUSH, due)

    def _flush(self, now: float, effects: List[Effect]) -> None:
        # Session-control retransmissions (e.g. START to a peer whose copy
        # was lost) must continue after this site enters its frame loop —
        # a peer may still be waiting on them.
        self.consistency.flush_tick(now)
        self._outbox.extend(self.runtime.session.poll(now))
        if self.runtime.session.started:
            self._outbox.extend(self.runtime.sync_broadcast(now=now))
            self._outbox.extend(self.recovery.digest_messages())

    # ------------------------------------------------------------------
    # Phase machine
    # ------------------------------------------------------------------
    def _advance(self, now: float, effects: List[Effect]) -> None:
        if self.phase == PHASE_HANDSHAKE:
            # The retry tick (or the flush) sent what was due.
            if self.runtime.session.started:
                self._end_wait()
                if self.frame_loop_delay > 0:
                    self.phase = PHASE_FRAME_WAIT
                    self._set(TIMER_FRAME, now + self.frame_loop_delay)
                else:
                    self._frame_cycle(now, effects)
        elif self.phase == PHASE_GATE:
            # A donor stalled on a crashed peer must still answer that
            # peer's RESUME — the snapshot is what unblocks the gate.
            self._outbox.extend(self.recovery.serve(now))
            if self.ladder.level is SUSPENDED:
                if not self.runtime.lockstep.can_deliver():
                    return
                # The partition healed (sync traffic resumed) or the
                # resumed peer's replayed inputs arrived: restore the pumps.
                self.ladder.recover(now, self._stall_started, effects)
                self._end_wait()
                self._unpark(now)
            if self._check_gate(now, effects):
                self._frame_cycle(now, effects)
        elif self.phase == PHASE_RECOVER:
            self._outbox.extend(self.recovery.serve(now))
            if self.recovery.step(now, effects):
                self._end_wait()
                self._frame_cycle(now, effects)
        elif self.phase == PHASE_CATCHUP:
            if self.consistency.settled(now) or now >= self._linger_deadline:
                self._enter_linger(now, effects)
        elif self.phase == PHASE_LINGER:
            self._maybe_finish_linger(now, effects)

    def _frame_cycle(
        self, now: float, effects: List[Effect], late: float = 0.0
    ) -> None:
        """Run frame iterations until one blocks (gate/wait) or the horizon
        is reached.  Iterative on purpose: a zero-compute zero-wait frame
        must not recurse.  ``late``: the frame timer's lateness when it
        is what begins the first iteration (Algorithm 3 carries it)."""
        runtime = self.runtime
        while True:
            if self._frames_done():
                self._enter_linger(now, effects)
                return
            self._sync_adjust = runtime.begin_frame(now, late)
            late = 0.0
            if self.time_server_address is not None:
                effects.append(
                    Send(
                        encode_report(runtime.frame),
                        self.time_server_address,
                    )
                )
            runtime.get_and_buffer_input(now)
            self._stall_started = now
            self._stalled = False
            self.phase = PHASE_GATE
            if not self._check_gate(now, effects):
                return

    def _check_gate(self, now: float, effects: List[Effect]) -> bool:
        """SyncInput's blocking check (lines 6–21).  True: the frame
        committed and the next one should begin immediately."""
        merged = self.consistency.try_ready(now)
        if merged is None:
            if not self._stalled:
                self._stalled = True
                lockstep = self.runtime.lockstep
                waiting = tuple(lockstep.waiting_on())
                effects.append(Stall(self.runtime.frame, waiting))
                if 0 in waiting and self.runtime.site_no:
                    lockstep.master_is_late()
            retry_at = self.ladder.climb(now, self._stall_started, effects)
            if retry_at is None:
                self._set(TIMER_GATE, now + self.SYNC_POLL)
            else:
                # Suspended: park the frame-rate pumps, probe with backoff.
                for kind in (TIMER_GATE, TIMER_FLUSH, TIMER_PING):
                    self._clear(kind)
                deadline = now + self.runtime.config.resume_deadline_s
                self._wait_on(self.ladder, retry_at, deadline)
            return False
        self._clear(TIMER_GATE)
        if self.ladder.level:
            self.ladder.recover(now, self._stall_started, effects)
        self.runtime.on_gate_open(now)
        return self._commit_frame(now, effects, merged, now - self._stall_started)

    def _commit_frame(
        self, now: float, effects: List[Effect], merged: int, stall: float
    ) -> bool:
        """Transition + present + EndFrameTiming.  Transition is a step,
        not a wait: its modelled compute time only moves the present and
        EndFrameTiming's clock to ``done``.  True: begin the next frame
        immediately (no wait owed)."""
        frame = self.runtime.frame
        done = now + self.frame_compute_time
        self.consistency.commit(merged, stall, self._sync_adjust, done)
        effects.append(Present(frame, merged))
        self._outbox.extend(self.recovery.serve(now, joins=True))
        # EndFrameTiming as an absolute deadline (None: begin at once).
        deadline = self.runtime.pacer.end_frame_deadline(done)
        if self._frames_done():
            self._enter_linger(now, effects)
            return False
        if deadline is None:
            if done == now:
                return True
            deadline = done  # an overrun still owes the compute time
        self.phase = PHASE_FRAME_WAIT
        self._set(TIMER_FRAME, deadline)
        return False

    # ------------------------------------------------------------------
    # Waits on a peer, desync recovery and termination
    # ------------------------------------------------------------------
    def _terminate(
        self, reason: str, now: float, effects: List[Effect]
    ) -> None:
        """Stop the engine for ``reason``; emits ``Finished``."""
        self.termination = reason
        self._timers.clear()
        self.phase = PHASE_DONE
        self.done = True
        effects.append(Finished(self.runtime.frame))

    def _wait_on(self, owner, retry_at: float, give_up_at: float) -> None:
        """Open a wait on a peer: ``owner`` re-sends from ``retry_at`` on
        and names the ending if ``give_up_at`` comes first."""
        self._wait = owner
        self._set(TIMER_RETRY, retry_at)
        self._set(TIMER_TIMEOUT, give_up_at)

    def _end_wait(self) -> None:
        """A wait on a peer is over: disarm its retry tick and timeout."""
        self._wait = None
        self._clear(TIMER_RETRY)
        self._clear(TIMER_TIMEOUT)

    def _unpark(self, now: float) -> None:
        """Re-arm the frame-rate pumps a suspension parked."""
        self._arm_send(now)
        self._set(TIMER_PING, now + PING_INTERVAL)

    def _check_divergence(self, now: float, effects: List[Effect]) -> None:
        """Drain proven divergences; freeze the loop in a resync episode
        when one can open.

        The authority (restored at once) and a slave (restored when the
        authority's snapshot arrives) both stay in ``PHASE_RECOVER``,
        re-sending unagreed digests, until agreement has been
        re-established past every known divergence — so a successful
        episode ends with *proof* of identity, not just a transfer.
        """
        phase = self.phase
        if phase in (PHASE_IDLE, PHASE_HANDSHAKE) or not self.runtime.lockstep.seated:
            return  # keep them pending until the loop runs
        divergences = self.recovery.divergences
        divergence = divergences[0]
        divergences.clear()
        if phase not in (PHASE_GATE, PHASE_FRAME_WAIT):
            # In an open episode the tracker raised ``max_divergent`` as it
            # proved these, so the exit threshold already covers them; once
            # every frame has executed, the post-session verifier reports
            # them in full.
            return
        request = self.recovery.open_episode(divergence, now)
        if request is None:
            self._terminate("desync", now, effects)
            return
        self._clear(TIMER_GATE)
        self._clear(TIMER_FRAME)
        if self.ladder.level is SUSPENDED:
            # The episode ends the suspension without a ``resumed`` record
            # (the degraded episode stays open) and needs the parked pumps
            # back: digests and the snapshot ride the normal flush.
            self.ladder.level = DEGRADED
            self._unpark(now)
        self.phase = PHASE_RECOVER
        self._wait_on(
            self.recovery,
            now + REQUEST_INTERVAL,
            now + self.runtime.config.resync_deadline_s,
        )
        self._outbox.extend(request)

    def _frames_done(self) -> bool:
        return self.runtime.frame >= self.max_frames

    # ------------------------------------------------------------------
    # Linger
    # ------------------------------------------------------------------
    def _enter_linger(self, now: float, effects: List[Effect]) -> None:
        """Finish: catch up until the consistency part has confirmed
        everything still in flight (bounded by ``linger``), then linger.
        Either wait is one deadline: every pump re-checks what ends it
        early (``_advance``), so its timer is the bound alone."""
        self._linger_deadline = now + self.linger
        self._set(TIMER_LINGER, self._linger_deadline)
        if self.phase != PHASE_CATCHUP and not self.consistency.settled(now):
            self.phase = PHASE_CATCHUP
            return
        self.frames_complete = True
        self.phase = PHASE_LINGER
        self._maybe_finish_linger(now, effects)

    def _maybe_finish_linger(self, now: float, effects: List[Effect]) -> None:
        if self.runtime.all_inputs_acked() or now >= self._linger_deadline:
            self._terminate("completed", now, effects)
