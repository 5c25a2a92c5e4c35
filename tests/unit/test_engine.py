"""The sans-IO engine driven directly: events in, effects out.

A tiny deterministic mesh stands in for a driver: it keeps one virtual
clock, routes ``Send`` effects between engines with a fixed link latency,
and advances time to whichever comes first — the next in-flight datagram
or the earliest ``next_deadline()``.  No sockets, no threads, no sleeping:
these tests exercise exactly the surface the three real drivers use.

Covered here (and nowhere else at this level):

* the session handshake through the engine's RETRY timer — START is
  retransmitted until START_ACK, and digest-mismatched joiners are
  rejected rather than admitted;
* lockstep delivery gating under simulated loss — observers never gate,
  and a frame is not delivered until every gating site's input arrives.
"""

import heapq

import pytest

from repro.core.config import SyncConfig
from repro.core.engine import (
    DatagramReceived,
    Finished,
    InputSampled,
    Present,
    Send,
    SiteEngine,
    SitePeer,
    SiteRuntime,
    Stall,
    TIMER_FLUSH,
    TIMER_FRAME,
    TIMER_GATE,
    TIMER_LINGER,
    TIMER_PING,
    TIMER_RETRY,
    TIMER_TIMEOUT,
)
from repro.core.inputs import IdleSource, InputAssignment, PadSource, RandomSource
from repro.core.messages import (
    Ping,
    Start,
    Sync,
    Welcome,
    decode_all,
    uvarint_len,
)
from repro.core.rtt import RttEstimator
from repro.emulator.machine import create_game
from tests.wire import sync_of


def contains(payload, message_type):
    """True if the datagram carries a message of ``message_type``.

    The outbox coalesces co-due messages into Batch containers, so a
    payload is a *list* of messages as far as filtering is concerned.
    """
    return any(isinstance(m, message_type) for m in decode_all(payload))


class EngineMesh:
    """Routes effects between engines under one deterministic virtual clock."""

    def __init__(self, engines, latency=0.005, loss=None):
        self.now = 0.0
        self.latency = latency
        #: ``loss(src_addr, dst_addr, payload, now) -> bool`` — True drops.
        self.loss = loss if loss is not None else (lambda *a: False)
        self.engines = {}
        self.effects = {}
        self._inflight = []
        self._seq = 0
        for engine in engines:
            address = engine.runtime.address_of[engine.runtime.site_no]
            self.engines[address] = engine
            self.effects[address] = []

    # ------------------------------------------------------------------
    def start(self):
        for address, engine in self.engines.items():
            self._absorb(address, engine.start(self.now))

    def _absorb(self, address, effects):
        self.effects[address].extend(effects)
        for effect in effects:
            if not isinstance(effect, Send):
                continue
            if effect.destination not in self.engines:
                continue
            if self.loss(address, effect.destination, effect.payload, self.now):
                continue
            self._seq += 1
            heapq.heappush(
                self._inflight,
                (self.now + self.latency, self._seq, effect.destination, effect.payload),
            )

    def _next_time(self):
        times = [self._inflight[0][0]] if self._inflight else []
        for engine in self.engines.values():
            deadline = engine.next_deadline()
            if deadline is not None:
                times.append(deadline)
        return min(times) if times else None

    def _step(self):
        self.now = max(self.now, self._next_time())
        while self._inflight and self._inflight[0][0] <= self.now:
            _, _, destination, payload = heapq.heappop(self._inflight)
            engine = self.engines[destination]
            self._absorb(
                destination,
                engine.handle(DatagramReceived(payload, self.now, self.now)),
            )
        for address, engine in self.engines.items():
            deadline = engine.next_deadline()
            if deadline is not None and deadline <= self.now:
                self._absorb(address, engine.poll(self.now))

    # ------------------------------------------------------------------
    def run(self, horizon=60.0):
        """Drive every engine to Finished (or fail at the horizon)."""
        while not all(engine.done for engine in self.engines.values()):
            next_time = self._next_time()
            assert next_time is not None, "mesh idle with engines unfinished"
            assert next_time <= horizon, f"mesh passed horizon at t={next_time:.3f}"
            self._step()

    def run_until(self, instant):
        """Advance the virtual clock to ``instant`` and stop there."""
        while True:
            next_time = self._next_time()
            if next_time is None or next_time > instant:
                self.now = max(self.now, instant)
                return
            self._step()

    # ------------------------------------------------------------------
    def presents(self, address):
        return [e for e in self.effects[address] if isinstance(e, Present)]

    def stalls(self, address):
        return [e for e in self.effects[address] if isinstance(e, Stall)]

    def sent(self, address, message_type):
        return [
            e
            for e in self.effects[address]
            if isinstance(e, Send) and contains(e.payload, message_type)
        ]


def build_engines(
    num_sites=2,
    frames=40,
    assignment=None,
    configs=None,
    game_ids=None,
    linger=5.0,
    seed=5,
    parts=None,
):
    """One engine per site, addressed ``site0..siteN`` for the mesh;
    ``parts``: one consistency part per site (default: lockstep)."""
    if assignment is None:
        assignment = InputAssignment.standard(num_sites)
    if configs is None:
        # slice_delay=0 keeps the flush schedule free of jitter draws.
        configs = [SyncConfig(slice_delay=0.0)] * num_sites
    peers = [SitePeer(site, f"site{site}") for site in range(num_sites)]
    engines = []
    for site in range(num_sites):
        source = (
            PadSource(RandomSource(seed + site), player=site)
            if assignment.mask(site)
            else IdleSource()
        )
        runtime = SiteRuntime(
            config=configs[site],
            site_no=site,
            assignment=assignment,
            machine=create_game("counter"),
            source=source,
            peers=peers,
            game_id=game_ids[site] if game_ids else "counter",
        )
        part = parts[site] if parts else None
        engines.append(SiteEngine(runtime, frames, part, linger=linger))
    return engines


class TestEngineSession:
    def test_two_site_session_completes_and_converges(self):
        engines = build_engines(frames=40)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for site, engine in enumerate(engines):
            assert engine.done and engine.frames_complete
            presents = mesh.presents(f"site{site}")
            assert [p.frame for p in presents] == list(range(40))
            assert any(
                isinstance(e, Finished) for e in mesh.effects[f"site{site}"]
            )
        traces = [engine.runtime.trace for engine in engines]
        assert list(traces[0].checksums) == list(traces[1].checksums)

    def test_pushed_input_overrides_source(self):
        engines = build_engines(frames=30)
        lag = engines[0].runtime.config.buf_frame
        for frame in range(30):
            assert engines[0].handle(InputSampled(frame, 0x01)) == []
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        # Site 0's pushed word lands ``lag`` frames later at both replicas.
        for present in mesh.presents("site1"):
            if present.frame >= lag:
                assert present.merged_input & 0x01


class TestSessionControlThroughEngine:
    def test_master_retransmits_start_until_acked(self):
        engines = build_engines(frames=20)
        dropped = []

        def loss(src, dst, payload, now):
            if src == "site0" and len(dropped) < 3 and contains(payload, Start):
                dropped.append(now)
                return True
            return False

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run()
        assert len(dropped) == 3
        # The RETRY timer kept re-sending START until the ack arrived...
        assert len(mesh.sent("site0", Start)) >= 4
        assert engines[0].runtime.session.all_acked
        # ...and the session still ran to completion on both sites.
        for site in range(2):
            assert len(mesh.presents(f"site{site}")) == 20

    def _assert_handshake_refused(self, mesh, engines, error_match):
        """A mismatched joiner is refused observably, never crashes the
        master: no WELCOME, a traced ``session_reject``, and both sides
        time out their handshakes cleanly."""
        mesh.start()
        mesh.run(horizon=2.0)
        master = engines[0].runtime.session
        assert not master.all_joined
        assert not master.started
        assert mesh.sent("site0", Welcome) == []
        assert all(e.termination == "handshake-timeout" for e in engines)
        rejects = [
            r for r in engines[0].runtime.events if r.kind == "session_reject"
        ]
        assert rejects and error_match in rejects[0].detail["error"]

    def test_joiner_with_wrong_game_image_rejected(self):
        configs = [SyncConfig(slice_delay=0.0, handshake_timeout_s=0.5)] * 2
        engines = build_engines(
            frames=10, configs=configs, game_ids=["counter", "pong"]
        )
        self._assert_handshake_refused(
            EngineMesh(engines), engines, "different game image"
        )

    def test_joiner_with_wrong_config_rejected(self):
        configs = [
            SyncConfig(slice_delay=0.0, buf_frame=6, handshake_timeout_s=0.5),
            SyncConfig(slice_delay=0.0, buf_frame=3, handshake_timeout_s=0.5),
        ]
        engines = build_engines(frames=10, configs=configs)
        self._assert_handshake_refused(
            EngineMesh(engines), engines, "incompatible SyncConfig"
        )


class TestDeliveryGatingUnderLoss:
    def test_observer_sync_loss_never_stalls_players(self):
        assignment = InputAssignment.with_observers(2, 1)
        engines = build_engines(
            num_sites=3, frames=40, assignment=assignment, linger=0.3
        )

        def loss(src, dst, payload, now):
            # The observer's sync traffic (acks only; it controls no bits)
            # never reaches anyone.
            return src == "site2" and contains(payload, Sync)

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run()
        for site in (0, 1):
            assert len(mesh.presents(f"site{site}")) == 40
        for address in mesh.effects:
            for stall in mesh.stalls(address):
                assert 2 not in stall.waiting_on

    def test_delivery_blocks_until_gating_input_arrives(self):
        assignment = InputAssignment.with_observers(2, 1)
        engines = build_engines(
            num_sites=3, frames=120, assignment=assignment, linger=0.3
        )
        outage = (1.0, 1.5)

        def loss(src, dst, payload, now):
            return (
                src == "site1"
                and dst == "site0"
                and outage[0] <= now < outage[1]
                and contains(payload, Sync)
            )

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run_until(outage[1])

        stalls = [s for s in mesh.stalls("site0") if 1 in s.waiting_on]
        assert stalls, "site 0 should stall on site 1 during the outage"
        # Delivery is gated: site 0 froze at the stalled frame instead of
        # reaching the ~90 frames an unimpeded run sees by t=1.5.
        frame_at_heal = engines[0].runtime.frame
        assert frame_at_heal <= stalls[-1].frame
        assert frame_at_heal < 80

        # Once the link heals, site 1's periodic flush retransmits the whole
        # unacked window and every site finishes with identical traces.
        mesh.run()
        for site in (0, 1):
            assert len(mesh.presents(f"site{site}")) == 120
        traces = [engine.runtime.trace for engine in engines]
        assert list(traces[0].checksums) == list(traces[1].checksums)
        # Observers never appear as a gating site, at any replica.
        for address in mesh.effects:
            for stall in mesh.stalls(address):
                assert 2 not in stall.waiting_on


class TestSendPathCoalescing:
    """The outbox merges co-due messages per peer into one BATCH datagram."""

    def test_session_coalesces_into_batches(self):
        engines = build_engines(frames=40)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        # Every datagram that left any engine is valid v2 and at least one
        # carried 2+ messages (a SYNC riding with a PING/PONG or control).
        batched = 0
        for address in mesh.effects:
            for effect in mesh.effects[address]:
                if isinstance(effect, Send):
                    messages = decode_all(effect.payload)
                    assert messages, "datagram decoded to nothing"
                    batched += len(messages) > 1
        assert batched > 0
        for engine in engines:
            assert engine.runtime.metrics.net_batch_coalesced.value > 0
        # Coalescing must not cost determinism.
        traces = [engine.runtime.trace for engine in engines]
        assert list(traces[0].checksums) == list(traces[1].checksums)

    def test_wire_bytes_counted_at_both_ends(self):
        engines = build_engines(frames=20)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for site, engine in enumerate(engines):
            metrics = engine.runtime.metrics
            sent = sum(
                len(e.payload)
                for e in mesh.effects[f"site{site}"]
                if isinstance(e, Send)
            )
            assert metrics.net_bytes_tx.value == sent
            # The lossless mesh delivers everything, and everything decodes.
            assert metrics.net_bytes_rx.value == metrics.bytes_received.value
            assert engine.snapshot()["counters"]["net_decode_errors"] == 0


class TestBandwidthBudget:
    """SyncConfig.bandwidth_budget_bps: deterministic lowest-priority drop."""

    def _engine(self, bps):
        configs = [
            SyncConfig(slice_delay=0.0, bandwidth_budget_bps=bps)
        ] * 2
        return build_engines(frames=10, configs=configs)[0]

    @staticmethod
    def _entry_sizes(messages):
        return [
            5 + uvarint_len(len(m._encode_body())) + len(m._encode_body())
            for m in messages
        ]

    def test_drop_order_sheds_pings_then_acks_then_inputs(self):
        engine = self._engine(bps=1)  # forces every non-control drop
        start = Start(0, 1)
        sync_inputs = sync_of(0, 1, 5, 6, [1, 2])
        pure_ack = Sync(0, 1, ack=5, first_frame=7)
        ping = Ping(0, 1, seq=0, timestamp_us=0)
        queue = [ping, sync_inputs, start, pure_ack]
        entries = [(m, "site1", m._encode_body()) for m in queue]
        kept = engine._apply_budget(entries, now=0.0)
        # Control is never dropped, everything else is.
        assert [m for m, _, _ in kept] == [start]
        assert engine.runtime.metrics.net_budget_deferrals.value == 3

    def test_partial_budget_keeps_input_syncs(self):
        start = Start(0, 1)
        sync_inputs = sync_of(0, 1, 5, 6, [1, 2])
        pure_ack = Sync(0, 1, ack=5, first_frame=7)
        ping = Ping(0, 1, seq=0, timestamp_us=0)
        queue = [ping, sync_inputs, start, pure_ack]
        sizes = self._entry_sizes(queue)
        # Enough for everything but the ping and the pure ack.
        bps = sizes[2] + sizes[1] + min(sizes[0], sizes[3]) - 1
        engine = self._engine(bps=bps)
        entries = [(m, "site1", m._encode_body()) for m in queue]
        kept = [m for m, _, _ in engine._apply_budget(entries, now=0.0)]
        assert any(m is sync_inputs for m in kept)
        assert any(m is start for m in kept)
        assert not any(m is ping for m in kept)
        assert not any(m is pure_ack for m in kept)

    def test_unbudgeted_config_never_defers(self):
        engines = build_engines(frames=20)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for engine in engines:
            assert engine.runtime.metrics.net_budget_deferrals.value == 0

    def test_starved_budget_defers_but_stays_consistent(self):
        """A budget below the sync floor slows the session down without
        desyncing it: dropped windows are rebuilt by the next flush."""
        configs = [
            SyncConfig(slice_delay=0.0, bandwidth_budget_bps=60)
        ] * 2
        engines = build_engines(frames=20, configs=configs)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        assert sum(
            e.runtime.metrics.net_budget_deferrals.value for e in engines
        ) > 0
        for site in range(2):
            assert len(mesh.presents(f"site{site}")) == 20
        traces = [engine.runtime.trace for engine in engines]
        assert list(traces[0].checksums) == list(traces[1].checksums)


class TestLegacyPeerRejection:
    """A site speaking an older wire version can never join (or desync) a
    session.  The HELLOs were captured from the v1 and v2 codecs for this
    session's id, game and config, so the rejection is the codec version,
    not a digest mismatch."""

    V1_HELLO = "52470101000100000001c12294785342bb70"
    V2_HELLO = "5247210101f8a88a890cf0f68a9a05"

    def test_v1_hello_rejected_observably(self):
        self._assert_rejected(self.V1_HELLO, "version 1 ")

    def test_v2_hello_rejected_observably(self):
        self._assert_rejected(self.V2_HELLO, "version 2 ")

    def _assert_rejected(self, hello_hex, version):
        configs = [SyncConfig(slice_delay=0.0, handshake_timeout_s=0.5)] * 2
        engines = build_engines(frames=10, configs=configs)
        master = engines[0]
        effects = master.start(0.0)
        raw = bytes.fromhex(hello_hex)
        now = 0.01
        while not master.done and now < 2.0:
            effects += master.handle(DatagramReceived(raw, now, now))
            deadline = master.next_deadline()
            now = max(now + 0.01, deadline if deadline is not None else now)
            effects += master.poll(now)

        # Never welcomed, never crashed, never desynced — the master sat
        # out its handshake window and terminated cleanly.
        assert not any(
            isinstance(e, Send) and contains(e.payload, Welcome)
            for e in effects
        )
        assert not master.runtime.session.all_joined
        assert master.done and master.termination == "handshake-timeout"
        # The rejection is observable: counted and carried in the trace.
        assert master.snapshot()["counters"]["net_decode_errors"] > 0
        errors = [
            r for r in master.runtime.events if r.kind == "decode_error"
        ]
        assert errors
        assert version in str(errors[0].detail["error"])


class TestTimerOrder:
    def test_simultaneous_timers_fire_in_deadline_then_kind_order(self):
        engine = build_engines()[0]
        fired = []
        engine._on_timer = lambda kind, *_: fired.append(kind)
        # Armed in neither deadline nor name order, with a three-way tie.
        engine._set("send", 1.0)
        engine._set("retry", 1.0)
        engine._set("linger", 3.0)
        engine._set("ping", 1.0)
        engine._set("flush", 0.5)
        engine._set("gate", 2.0)
        assert engine.next_deadline() == 0.5
        engine.poll(2.0)
        assert fired == ["flush", "ping", "retry", "send", "gate"]
        assert engine.next_deadline() == 3.0

    def test_a_wait_on_a_peer_fires_after_the_frame_loop_kinds(self):
        """``retry`` and ``timeout`` sort after the five other kinds, and
        ``retry`` before ``timeout``: a wait's last re-send goes out before
        its give-up, and neither pre-empts a frame-loop timer due with it."""
        engine = build_engines()[0]
        fired = []
        engine._on_timer = lambda kind, *_: fired.append(kind)
        for kind in (
            TIMER_TIMEOUT, TIMER_RETRY, TIMER_PING, TIMER_LINGER,
            TIMER_GATE, TIMER_FRAME, TIMER_FLUSH,
        ):
            engine._set(kind, 1.0)
        engine.poll(1.0)
        assert fired == [
            TIMER_FLUSH, TIMER_FRAME, TIMER_GATE, TIMER_LINGER,
            TIMER_PING, TIMER_RETRY, TIMER_TIMEOUT,
        ]


class TestSendTimer:
    def test_one_flush_timer_carries_the_period_and_the_slice_delay(self):
        """The paper's batching sender is one timer: no separate send tick
        wakes the site up, and each flush follows the previous one by
        ``send_interval`` plus a U[0, 2·slice_delay) thread slice."""
        config = SyncConfig()
        engines = build_engines(frames=120, configs=[config, config])
        flushes = []
        master = engines[0]

        def on_timer(kind, now, *args, inner=master._on_timer):
            if kind == "flush":
                flushes.append(now)
            inner(kind, now, *args)

        master._on_timer = on_timer
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(1.5)
        gaps = [b - a for a, b in zip(flushes, flushes[1:])]
        assert len(gaps) > 50
        low, width = config.send_interval, 2.0 * config.slice_delay
        assert all(low - 1e-9 <= gap < low + width for gap in gaps)
        assert max(gaps) - min(gaps) > width / 2  # the slice is drawn
        timers = {
            r.detail["timer"] for r in master.runtime.events if r.kind == "timer"
        }
        assert "flush" in timers and "send" not in timers


class TestAlgorithm4Inputs:
    def test_begin_frame_hands_the_pacer_min_rtt_and_the_chosen_sample(self):
        engines = build_engines(frames=200)
        mesh = EngineMesh(engines, latency=0.020)
        mesh.start()
        mesh.run_until(1.0)
        slave = engines[1].runtime
        # One ping that queued: the smoothed estimate follows it, the
        # minimum (what pairs with the least-delayed master sample) does not.
        ping = slave.rtt.make_ping(mesh.now - 0.140)
        slave.rtt.on_pong(RttEstimator.make_pong(ping, 0), mesh.now)
        assert slave.rtt.rtt > slave.rtt.min_rtt == pytest.approx(0.040)
        window = slave.lockstep._master_window
        assert len(window) > 1
        seen = []
        slave.pacer.begin_frame = lambda *args: seen.append(args) or 0.0
        slave.begin_frame(mesh.now)
        (now, frame, sample, rtt, late), = seen
        assert (now, frame, late) == (mesh.now, slave.frame, 0.0)
        assert rtt == slave.rtt.min_rtt
        assert sample == slave.lockstep.master_sample == min(window)[1]

    def test_a_gate_blocked_on_the_master_shortens_a_slaves_memory(self):
        """``master_is_late`` fires on a non-master site, only when site 0 is
        among what its gate waits on, and once per blocked frame however
        often the gate re-polls."""
        assignment = InputAssignment.with_observers(2, 1)
        engines = build_engines(
            num_sites=3, frames=120, assignment=assignment, linger=0.3
        )
        calls = {}
        for engine in engines:
            lockstep = engine.runtime.lockstep
            log = calls[engine.runtime.address_of[engine.runtime.site_no]] = []

            def master_is_late(lockstep=lockstep, log=log, inner=lockstep.master_is_late):
                log.append(lockstep.ibuf_pointer)
                inner()

            lockstep.master_is_late = master_is_late

        def loss(src, dst, payload, now):
            # The slave stops hearing the master; the observer stops hearing
            # the slave.  The master then waits on the stalled slave.
            return (
                (src, dst) in (("site0", "site1"), ("site1", "site2"))
                and 1.0 <= now < 1.5
                and contains(payload, Sync)
            )

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run()
        stalls = {address: mesh.stalls(address) for address in mesh.effects}
        for address in ("site1", "site2"):
            on_master = [s.frame for s in stalls[address] if 0 in s.waiting_on]
            assert calls[address] == on_master
            assert len(set(on_master)) == len(on_master)
        assert calls["site1"]
        # The outage blocked the slave for 0.5 s of 4 ms gate polls: one
        # call per blocked frame, not per poll.
        assert len(calls["site1"]) < 0.1 / SiteEngine.SYNC_POLL
        # The observer also blocked on the slave alone, which is no call.
        assert any(s.waiting_on == (1,) for s in stalls["site2"])
        # The master blocked on the slave and never shortens anything.
        assert stalls["site0"] and calls["site0"] == []


class TestTransitionIsAStep:
    """Algorithm 1's ``S = Transition(I', S)`` runs in the pump that opens
    the gate; its modelled compute time only moves EndFrameTiming's clock."""

    def test_present_leaves_with_the_gate_open_and_the_grid_holds(self):
        engines = build_engines(frames=60)
        opened, presented = {}, {}
        for engine in engines:
            engine.frame_compute_time = 0.002
            runtime = engine.runtime
            site_opened = opened[runtime.site_no] = {}
            site_presented = presented[runtime.site_no] = {}

            def on_gate_open(now, runtime=runtime, log=site_opened,
                             inner=runtime.on_gate_open):
                log[runtime.frame] = now
                inner(now)

            def pump(now, effects, log=site_presented, inner=engine._pump):
                effects = inner(now, effects)
                log.update((e.frame, now) for e in effects if isinstance(e, Present))
                return effects

            runtime.on_gate_open = on_gate_open
            engine._pump = pump
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for engine in engines:
            site = engine.runtime.site_no
            assert engine.termination == "completed"
            assert presented[site] == opened[site] and len(opened[site]) == 60
            events = engine.runtime.events
            assert events.dropped == 0
            assert not [r for r in events if r.kind == "timer" and r.detail["timer"] == "compute"]
            # Gate and wait alternate inside one pump: no per-frame phase record.
            assert len([r for r in events if r.kind == "phase"]) < 10
        master = engines[0].runtime
        tpf = master.config.time_per_frame
        first = master.trace.begin_times[0]
        for k, begin in enumerate(master.trace.begin_times):
            assert begin == pytest.approx(first + k * tpf, abs=1e-9)

    def test_an_overrun_waits_out_the_compute_time_on_the_frame_timer(self):
        """Compute longer than a frame: the next frame begins ``compute``
        after the gate opened — the overrun path a slowed master takes."""
        engines = build_engines(frames=200)
        master = engines[0]
        master.frame_compute_time = compute = 0.019
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(0.5)
        assert master.phase == "frame-wait"
        due = master._timers["frame"]
        frame = master.runtime.frame
        overruns = master.runtime.pacer.stats.overruns
        effects = master.poll(due)
        # Begun, gated and presented in this one pump...
        assert [e.frame for e in effects if isinstance(e, Present)] == [frame]
        assert master.runtime.trace.begin_times[-1] == due
        assert master.runtime.pacer.stats.overruns == overruns + 1
        # ...and the next begin is owed the whole compute time.
        assert master.phase == "frame-wait"
        assert master._timers["frame"] == due + compute
        master.poll(due + compute)
        assert master.runtime.trace.begin_times[-1] == due + compute


class TestLingerDeadline:
    def test_an_unacked_site_lingers_exactly_linger_on_one_timer(self):
        """A site whose peer never acks its last inputs ends ``completed``
        at the linger bound itself, woken once for it — no polling."""
        engines = build_engines(frames=60, linger=0.5)
        master = engines[0]

        def loss(src, dst, payload, now):
            return src == "site1" and master.frames_complete

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run()
        assert master.termination == "completed"
        assert not master.runtime.all_inputs_acked()
        events = master.runtime.events
        phases = {r.detail["to"]: r.time for r in events if r.kind == "phase"}
        assert phases["done"] == phases["linger"] + master.linger
        lingers = [r for r in events if r.kind == "timer" and r.detail["timer"] == "linger"]
        assert [r.time for r in lingers] == [phases["done"]]


class LateMesh(EngineMesh):
    """A driver that always wakes up a little after what it slept for."""

    LATE = 0.003

    def _step(self):
        self.now = max(self.now, self._next_time() + self.LATE)
        super()._step()


class TestFrameTimerLateness:
    """Algorithm 3's one extension, at the engine seam: how late the frame
    timer fired travels with the frame's begin — and nothing else does."""

    def test_late_frame_timer_begins_the_next_frame_early(self):
        engines = build_engines(frames=200)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(0.5)
        master = engines[0]
        tpf = master.runtime.config.time_per_frame
        assert master.phase == "frame-wait" and master.runtime.pacer.is_master
        due = master._timers["frame"]
        frame = master.runtime.frame
        master.poll(due + 0.003)
        # The frame began 3 ms late and was presented...
        assert master.runtime.frame == frame + 1
        assert master.runtime.trace.begin_times[-1] == due + 0.003
        # ...and the one after it is due where the schedule says, not 3 ms on.
        assert master._timers["frame"] == pytest.approx(due + tpf, abs=1e-9)
        # An on-time poll leaves the schedule alone: same deadline, exactly.
        master.poll(due + tpf)
        assert master._timers["frame"] == pytest.approx(due + 2 * tpf, abs=1e-9)

    def test_only_the_frame_timers_lateness_is_carried(self):
        config = SyncConfig(
            slice_delay=0.0, state_digest_interval=10, resync_deadline_s=3.0
        )
        engines = build_engines(frames=300, configs=[config, config])
        engines[0].frame_loop_delay = 0.05  # its first frame begins off a timer
        begins, fired = {0: [], 1: []}, {0: [], 1: []}
        for site, engine in enumerate(engines):
            pacer = engine.runtime.pacer

            def begin_frame(
                now, frame, sample, rtt, late,
                engine=engine, inner=pacer.begin_frame, log=begins[site],
            ):
                log.append((engine.phase, late))
                return inner(now, frame, sample, rtt, late)

            def on_timer(
                kind, now, effects, late, inner=engine._on_timer, log=fired[site]
            ):
                if kind == "frame":
                    log.append(late)
                inner(kind, now, effects, late)

            pacer.begin_frame = begin_frame
            engine._on_timer = on_timer

        def outage(src, dst, payload, now):
            # Long enough that the gate opens on an overrun frame, so the
            # next one begins from the gate, not from a timer.
            return src == "site1" and 1.0 <= now < 1.3

        mesh = LateMesh(engines, loss=outage)
        mesh.start()
        mesh.run_until(2.5)
        # A corrupted replica: the digests catch it, both loops freeze,
        # and thaw with a frame begun by the resync restart.
        machine = engines[1].runtime.machine
        blob = bytearray(machine.save_state())
        blob[0] ^= 0x01
        machine.load_state(bytes(blob))
        mesh.run(horizon=60.0)
        for site, engine in enumerate(engines):
            assert engine.termination == "completed"
            assert engine.snapshot()["counters"]["resync_success"] == 1
            from_timer = [late for phase, late in begins[site] if phase == "frame-wait"]
            assert from_timer == fired[site]
            assert min(from_timer) >= 0.0 and max(from_timer) >= LateMesh.LATE
            others = [(phase, late) for phase, late in begins[site] if phase != "frame-wait"]
            assert {late for phase, late in others} == {0.0}
            assert "recover" in {phase for phase, late in others}
        # The delayed master's very first frame: its timer's lateness only.
        assert begins[0][0] == ("frame-wait", fired[0][0]) and fired[0][0] > 0.0
        assert begins[1][0] == ("handshake", 0.0)
        assert "gate" in {phase for phase, late in begins[0]}
