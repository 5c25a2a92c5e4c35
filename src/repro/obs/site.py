"""Per-``SiteRuntime`` instrument bundle.

:class:`SiteMetrics` splits its instruments into two groups so the frame
loop stays cheap:

* **Hot-path instruments** — bound to attributes at construction and
  updated by :class:`~repro.core.engine.SiteEngine` as events flow: one
  counter increment per datagram/frame/stall, one histogram ``observe``
  per frame for frame time / sync stall / ``SyncAdjustTimeDelta``.
* **Mirrored instruments** — the sync layer already keeps authoritative
  totals (``LockstepStats``, ``PacerStats``, ``RttEstimator``); those are
  copied into the registry only when :meth:`refresh`/:meth:`snapshot` is
  called, so the Algorithm 2/3/4 hot paths are not touched at all.

Rollback and state transfer record through the dedicated helpers
(:meth:`on_rollback`, :meth:`on_state_served`, :meth:`on_state_acquired`);
those paths fire at most a few times per second, so direct recording is
fine there.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import DEPTH_BUCKETS, Registry, TIME_BUCKETS
from repro.obs.timeline import _SPANS


class SiteMetrics:
    """All of one site's instruments, pre-bound for O(1) recording."""

    def __init__(self, site_no: int, session_id: int = 1) -> None:
        self.registry = Registry(
            labels={"site": str(site_no), "session": str(session_id)}
        )
        r = self.registry
        # Hot path — engine-updated.
        self.frames = r.counter("frames")
        self.stalls = r.counter("stalls")
        self.datagrams_sent = r.counter("datagrams_sent")
        self.datagrams_received = r.counter("datagrams_received")
        self.bytes_sent = r.counter("bytes_sent")
        self.bytes_received = r.counter("bytes_received")
        self.frame_time = r.histogram("frame_time_seconds", TIME_BUCKETS)
        self.stall_time = r.histogram("sync_stall_seconds", TIME_BUCKETS)
        self.sync_adjust = r.histogram("sync_adjust_seconds", TIME_BUCKETS)
        # Frame-latency attribution (ISSUE-8): one histogram per timeline
        # span plus capture→present end-to-end.  Created unconditionally so
        # the catalog presence gate holds; they only ever fill when the
        # session negotiated FEATURE_TIMELINE.
        self.frame_latency = {
            stage: r.histogram(f"frame_latency_{stage}_seconds", TIME_BUCKETS)
            for stage in ("encode", "wire", "decode", "gate", "step", "present")
        }
        self.frame_latency_total = r.histogram(
            "frame_latency_total_seconds", TIME_BUCKETS
        )
        # Point-index → histogram table so the per-frame hot path indexes
        # the record's points directly instead of building a stage dict.
        self._latency_spans = tuple(
            (start, end, self.frame_latency[stage]) for stage, start, end in _SPANS
        )
        # Wire-format v2 send path (ISSUE-7): protocol bytes actually put
        # on / taken off the wire by the engine's outbox, batch coalescing
        # and bandwidth-budget activity.  ``net_bytes_rx`` counts only
        # successfully decoded datagrams (``bytes_received`` counts all).
        self.net_bytes_tx = r.counter("net_bytes_tx")
        self.net_bytes_rx = r.counter("net_bytes_rx")
        self.net_batch_coalesced = r.counter("net_batch_coalesced")
        self.net_budget_deferrals = r.counter("net_budget_deferrals")
        self.net_decode_errors = r.counter("net_decode_errors")
        # Failure domain — rare-path, recorded directly.
        self.degraded_episodes = r.counter("degraded_episodes")
        self.suspended_seconds = r.counter("suspended_seconds")
        self.resumes = r.counter("resumes")
        self.send_errors = r.counter("send_errors")
        # Rollback / late join — rare-path, recorded directly.
        self.rollbacks = r.counter("rollbacks")
        self.rollback_delta_bytes = r.counter("rollback_delta_bytes")
        self.rollback_depth = r.histogram("rollback_depth_frames", DEPTH_BUCKETS)
        self.state_serves = r.counter("state_serves")
        self.state_serve_bytes = r.counter("state_serve_bytes")
        self.state_acquire_bytes = r.counter("state_acquire_bytes")
        # Desync recovery (ISSUE-10) — rare-path except digest_bytes_tx
        # (one increment per digest window per peer, ~1 Hz).
        self.desync_detected = r.counter("desync_detected")
        self.resync_attempts = r.counter("resync_attempts")
        self.resync_success = r.counter("resync_success")
        self.resync_seconds = r.counter("resync_seconds")
        self.state_crc_errors = r.counter("state_crc_errors")
        self.digest_bytes_tx = r.counter("digest_bytes_tx")
        self.switch_log_evictions = r.counter("switch_log_evictions")
        # Adaptive consistency (ISSUE-9): committed lockstep↔rollback
        # switches, the predictor's hit ratio (mirrored from
        # RollbackStats) and the live local lag the tuner settled on.
        self.policy_switches = r.counter("policy_switches")
        self.predict_hit_ratio = r.gauge("predict_hit_ratio")
        self.buf_frame_current = r.gauge("buf_frame_current")
        # Mirrored from the sync layer's own stats at snapshot time.
        self.sync_sent = r.counter("sync_sent")
        self.sync_received = r.counter("sync_received")
        self.inputs_sent = r.counter("inputs_sent")
        self.retransmitted_inputs = r.counter("retransmitted_inputs")
        self.duplicate_inputs = r.counter("duplicate_inputs")
        self.out_of_window_inputs = r.counter("out_of_window_inputs")
        self.frames_delivered = r.counter("frames_delivered")
        self.lag_changes = r.counter("lag_changes")
        self.pacer_overruns = r.counter("pacer_overruns")
        self.pacer_sync_adjust_clamped = r.counter("pacer_sync_adjust_clamped")
        self.ack_lag_frames = r.gauge("ack_lag_frames")
        self.local_lag_frames = r.gauge("local_lag_frames")
        self.rtt_seconds = r.gauge("rtt_seconds")
        self.frame_number = r.gauge("frame_number")
        self.adjust_time_delta = r.gauge("adjust_time_delta_seconds")
        # Mirrored from ClockAlign / SloScorer at snapshot time.
        self.clock_offset = r.gauge("clock_offset_seconds")
        self.clock_drift = r.gauge("clock_offset_drift")
        self.slo_score = r.gauge("slo_score")
        self.slo_breaches = r.counter("slo_breaches")
        # Mirrored from the machine's block-translation cache (RC-16
        # consoles expose cpu_stats(); other machines leave these at 0).
        self.cpu_blocks_compiled = r.counter("cpu_blocks_compiled")
        self.cpu_block_hits = r.counter("cpu_block_hits")
        self.cpu_block_invalidations = r.counter("cpu_block_invalidations")
        self.cpu_fallback_steps = r.counter("cpu_fallback_steps")
        self._last_begin: Optional[float] = None

    # ------------------------------------------------------------------
    # Hot-path helpers the engine calls
    # ------------------------------------------------------------------
    def on_begin_frame(self, now: float) -> None:
        last = self._last_begin
        if last is not None:
            self.frame_time.observe(now - last)
        self._last_begin = now

    def on_commit(self, stall: float, sync_adjust: float) -> None:
        self.frames.inc()
        self.stall_time.observe(stall)
        if sync_adjust:
            self.sync_adjust.observe(abs(sync_adjust))

    def on_frame_latency(self, record) -> None:
        """Observe one finalized :class:`FrameTimeline` into the histograms.

        Partial records contribute whatever spans they do know; only fully
        attributed frames feed the end-to-end series, so ``_total``'s
        ``_count`` doubles as the complete-frame counter.
        """
        points = record.points
        for start, end, histogram in self._latency_spans:
            a = points[start]
            if a is None:
                continue
            b = points[end]
            if b is None:
                continue
            histogram.observe(b - a if b > a else 0.0)
        a = points[0]
        b = points[6]
        if a is not None and b is not None:
            self.frame_latency_total.observe(b - a if b > a else 0.0)

    # ------------------------------------------------------------------
    # Rare-path helpers
    # ------------------------------------------------------------------
    def on_rollback(self, depth: int, delta_bytes: int) -> None:
        self.rollbacks.inc()
        self.rollback_depth.observe(depth)
        self.rollback_delta_bytes.inc(delta_bytes)

    def on_state_served(self, num_bytes: int) -> None:
        self.state_serves.inc()
        self.state_serve_bytes.inc(num_bytes)

    def on_state_acquired(self, num_bytes: int) -> None:
        self.state_acquire_bytes.inc(num_bytes)

    # ------------------------------------------------------------------
    # Snapshot-time mirroring
    # ------------------------------------------------------------------
    def refresh(self, runtime) -> None:
        """Copy the sync layer's authoritative totals into the registry.

        ``set_total`` keeps the mirrored counters monotone even if a stat
        object were swapped out; gauges just take the current value.
        """
        drain = getattr(runtime, "drain_timeline", None)
        if drain is not None:
            # Flush deferred frame-latency records into the histograms and
            # the SLO scorer before mirroring either.
            drain()
        lockstep = runtime.lockstep
        stats = lockstep.stats
        self.sync_sent.set_total(stats.sync_messages_sent)
        self.sync_received.set_total(stats.sync_messages_received)
        self.inputs_sent.set_total(stats.inputs_sent)
        self.retransmitted_inputs.set_total(stats.inputs_retransmitted)
        self.duplicate_inputs.set_total(stats.duplicate_inputs_received)
        self.out_of_window_inputs.set_total(stats.out_of_window_inputs)
        self.frames_delivered.set_total(stats.frames_delivered)
        self.lag_changes.set_total(stats.lag_changes)
        self.pacer_overruns.set_total(runtime.pacer.stats.overruns)
        self.pacer_sync_adjust_clamped.set_total(
            runtime.pacer.stats.sync_adjust_clamped
        )
        self.local_lag_frames.set(lockstep.local_lag_frames)
        self.buf_frame_current.set(lockstep.local_lag_frames)
        rollback_stats = getattr(runtime, "rollback_stats", None)
        if rollback_stats is not None:
            self.predict_hit_ratio.set(rollback_stats.predict_hit_ratio)
        self.rtt_seconds.set(runtime.rtt.rtt)
        self.frame_number.set(runtime.frame)
        self.adjust_time_delta.set(runtime.pacer.adjust_time_delta)
        clocks = getattr(runtime, "clocks", None)
        if clocks:
            # Export the lowest-numbered aligned peer: stable across scrapes
            # and in a two-site session simply "the other site".
            for __, align in sorted(clocks.items()):
                if align.aligned:
                    self.clock_offset.set(align.offset)
                    self.clock_drift.set(align.drift)
                    break
        slo = getattr(runtime, "slo", None)
        if slo is not None:
            self.slo_score.set(slo.score)
            self.slo_breaches.set_total(slo.breaches)
        mine = lockstep.last_rcv_frame[runtime.site_no]
        peer_acks = [
            lockstep.last_ack_frame[s]
            for s in runtime.peer_sites
            if not lockstep.is_absent(s)
        ]
        self.ack_lag_frames.set(max(0, mine - min(peer_acks)) if peer_acks else 0)
        cpu_stats = getattr(runtime.machine, "cpu_stats", None)
        if cpu_stats is not None:
            cache = cpu_stats()
            self.cpu_blocks_compiled.set_total(cache["blocks_compiled"])
            self.cpu_block_hits.set_total(cache["block_hits"])
            self.cpu_block_invalidations.set_total(cache["block_invalidations"])
            self.cpu_fallback_steps.set_total(cache["fallback_steps"])

    def snapshot(self, runtime=None) -> dict:
        """Registry snapshot (mirrors the sync layer first when given)."""
        if runtime is not None:
            self.refresh(runtime)
        return self.registry.snapshot()
