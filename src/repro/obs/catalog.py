"""The metric catalog and the exposition checker CI runs.

:data:`METRIC_CATALOG` is the one declaration of every metric: its kind,
its help text and, for a total something else already keeps, the function
that reads it off the site's runtime at scrape time.
:class:`~repro.obs.site.SiteMetrics` builds its instruments from the rows
without a read and adds the read rows to every snapshot, so every catalog
entry must appear in every site's exposition — a missing series means the
wiring regressed, which is exactly what :func:`check_exposition` (and the
CI step built on :func:`run_catalog_check`) exists to catch.

``run_catalog_check`` runs a short lossy two-site simulated session,
scrapes the Prometheus text exposition mid-run and again at the end, and
fails if any catalog metric is missing or any monotone series went down
between the scrapes.  Heavy imports happen inside the function so that
importing :mod:`repro.obs` (which the engine does) never pulls in
:mod:`repro.core`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import PROM_PREFIX


def _tally(kind: str) -> Callable[[Any], int]:
    """A counter of ``kind`` trace records: the trace's own total."""
    return lambda runtime: runtime.events.totals.get(kind, 0)


def _ack_lag(runtime) -> int:
    """Own frames not yet acked by the slowest present peer."""
    lockstep = runtime.lockstep
    mine = lockstep.last_rcv_frame[runtime.site_no]
    acks = [
        lockstep.last_ack_frame[s]
        for s in runtime.peer_sites
        if not lockstep.is_absent(s)
    ]
    return max(0, mine - min(acks)) if acks else 0


def _predict_hit_ratio(runtime) -> float:
    stats = getattr(runtime, "rollback_stats", None)
    return 0.0 if stats is None else stats.predict_hit_ratio


def _clock(field: str) -> Callable[[Any], float]:
    """The lowest-numbered aligned peer's estimate: stable across scrapes
    and in a two-site session simply "the other site"."""

    def read(runtime) -> float:
        for __, align in sorted(runtime.clocks.items()):
            if align.aligned:
                return getattr(align, field)
        return 0.0

    return read


def _cpu(key: str) -> Callable[[Any], int]:
    """The machine's block-translation cache (RC-16 consoles expose
    ``cpu_stats()``; other machines read 0)."""

    def read(runtime) -> int:
        cpu_stats = getattr(runtime.machine, "cpu_stats", None)
        return 0 if cpu_stats is None else cpu_stats()[key]

    return read


#: name → (kind, help, read).  Kind is "counter" / "gauge" / "histogram";
#: counters and histograms (their ``_count``) are monotone, gauges are not.
#: ``read`` is None for an instrument the engine records as events flow;
#: otherwise it is a function of the site's ``SiteRuntime``, evaluated at
#: scrape time, so a total the sync layer or the trace already keeps is
#: read, never copied.
METRIC_CATALOG: Dict[str, Tuple[str, str, Optional[Callable[[Any], float]]]] = {
    "frames": ("counter", "Frames presented (Present effects)", None),
    "stalls": ("counter", "Frames that blocked in SyncInput", _tally("stall")),
    "datagrams_sent": ("counter", "Datagrams emitted (Send effects)", None),
    "datagrams_received": ("counter", "Datagrams fed to the engine", None),
    "bytes_sent": ("counter", "Payload bytes emitted", None),
    "bytes_received": ("counter", "Payload bytes received", None),
    "net_bytes_tx": (
        "counter",
        "Wire bytes emitted by the outbox (after batching)",
        None,
    ),
    "net_bytes_rx": (
        "counter",
        "Wire bytes successfully decoded (bytes_received counts all)",
        None,
    ),
    "net_batch_coalesced": (
        "counter",
        "Datagrams that carried a coalesced Batch of 2+ messages",
        None,
    ),
    "net_budget_deferrals": (
        "counter",
        "Messages dropped by the bandwidth budget (resent by the window)",
        None,
    ),
    "net_decode_errors": (
        "counter",
        "Datagrams/messages rejected by the decoder or by SYNC validation",
        _tally("decode_error"),
    ),
    "sync_sent": (
        "counter",
        "Algorithm 2 sd messages sent",
        attrgetter("lockstep.stats.sync_messages_sent"),
    ),
    "sync_received": (
        "counter",
        "Algorithm 2 rc messages received",
        attrgetter("lockstep.stats.sync_messages_received"),
    ),
    "inputs_sent": (
        "counter",
        "Input frames put on the wire",
        attrgetter("lockstep.stats.inputs_sent"),
    ),
    "retransmitted_inputs": (
        "counter",
        "Input frames re-sent because an ack was outstanding",
        attrgetter("lockstep.stats.inputs_retransmitted"),
    ),
    "duplicate_inputs": (
        "counter",
        "Received input frames already buffered (dup suppression)",
        attrgetter("lockstep.stats.duplicate_inputs_received"),
    ),
    "out_of_window_inputs": (
        "counter",
        "Received sync windows not contiguous with the buffer (gap)",
        attrgetter("lockstep.stats.out_of_window_inputs"),
    ),
    "frames_delivered": (
        "counter",
        "Merged inputs delivered (line 22)",
        attrgetter("lockstep.stats.frames_delivered"),
    ),
    "lag_changes": (
        "counter",
        "Adaptive local-lag resizes",
        attrgetter("lockstep.stats.lag_changes"),
    ),
    "pacer_overruns": (
        "counter",
        "Frames that overran their slot (Alg. 3)",
        attrgetter("pacer.stats.overruns"),
    ),
    "pacer_sync_adjust_clamped": (
        "counter",
        "Alg. 4 corrections cut to ±SYNC_ADJUST_CLAMP_FRAMES (slave only)",
        attrgetter("pacer.stats.sync_adjust_clamped"),
    ),
    "degraded_episodes": (
        "counter",
        "Gate stalls that crossed soft_stall_s (lockstep.degraded_episodes)",
        _tally("degraded"),
    ),
    "suspended_seconds": (
        "counter",
        "Total time the gate spent suspended (lockstep.suspended_s)",
        None,
    ),
    "resumes": (
        "counter",
        "Recoveries from suspension, incl. RESUME rejoins (session.resumes)",
        None,
    ),
    "send_errors": (
        "counter",
        "Datagram sends that failed at the OS/transport (net.send_errors)",
        None,
    ),
    "rollbacks": (
        "counter",
        "Speculation rollbacks (timewarp variant)",
        _tally("rollback"),
    ),
    "rollback_delta_bytes": (
        "counter",
        "Bytes copied by shadow-to-speculative restores",
        None,
    ),
    "policy_switches": (
        "counter",
        "Committed lockstep/rollback mode switches (consistency policy)",
        _tally("switch_commit"),
    ),
    "state_serves": ("counter", "Late-join savestates served", None),
    "state_serve_bytes": ("counter", "Savestate bytes served to joiners", None),
    "state_acquire_bytes": (
        "counter",
        "Savestate bytes loaded when joining late",
        None,
    ),
    "desync_detected": (
        "counter",
        "Live state-digest mismatches proven against a peer",
        _tally("desync"),
    ),
    "resync_attempts": (
        "counter",
        "Desync-recovery episodes opened (freeze + restore + replay)",
        _tally("resync_begin"),
    ),
    "resync_success": (
        "counter",
        "Recovery episodes that re-proved bit-identical state",
        _tally("resync_done"),
    ),
    "resync_seconds": (
        "counter",
        "Simulated seconds spent frozen inside recovery episodes",
        None,
    ),
    "state_crc_errors": (
        "counter",
        "State-transfer payloads rejected by the end-to-end CRC",
        _tally("state_crc_error"),
    ),
    "digest_bytes_tx": ("counter", "Wire bytes spent on state-digest piggybacks", None),
    "switch_log_evictions": (
        "counter",
        "Adaptive switch-log entries evicted by the retention cap",
        None,
    ),
    "slo_breaches": (
        "counter",
        "Attributed frames whose capture-to-present latency broke the budget",
        attrgetter("slo.breaches"),
    ),
    "ack_lag_frames": (
        "gauge",
        "Own frames not yet acked by the slowest peer",
        _ack_lag,
    ),
    "local_lag_frames": (
        "gauge",
        "Local lag (BufFrame) in effect",
        attrgetter("lockstep.local_lag_frames"),
    ),
    "predict_hit_ratio": (
        "gauge",
        "Fraction of speculated frames whose input prediction held up",
        _predict_hit_ratio,
    ),
    "rtt_seconds": ("gauge", "Smoothed round-trip estimate", attrgetter("rtt.rtt")),
    "frame_number": ("gauge", "Current frame counter", attrgetter("frame")),
    "adjust_time_delta_seconds": (
        "gauge",
        "Carried pacing compensation (Alg. 3)",
        attrgetter("pacer.adjust_time_delta"),
    ),
    "clock_offset_seconds": (
        "gauge",
        "Estimated peer clock offset theta (NTP-style, min-delay filtered)",
        _clock("offset"),
    ),
    "clock_offset_drift": (
        "gauge",
        "Estimated peer clock drift (seconds of offset change per second)",
        _clock("drift"),
    ),
    "slo_score": (
        "gauge",
        "Fraction of recent attributed frames within the latency budget",
        attrgetter("slo.score"),
    ),
    "cpu_blocks_compiled": (
        "counter",
        "RC-16 regions compiled by the block translator",
        _cpu("blocks_compiled"),
    ),
    "cpu_block_hits": (
        "counter",
        "Entries into a compiled region closure (one may run many blocks)",
        _cpu("block_hits"),
    ),
    "cpu_block_invalidations": (
        "counter",
        "Compiled regions discarded because their bytes changed (SMC)",
        _cpu("block_invalidations"),
    ),
    "cpu_fallback_steps": (
        "counter",
        "Instructions single-stepped by the reference interpreter in block mode",
        _cpu("fallback_steps"),
    ),
    "frame_time_seconds": ("histogram", "Frame-to-frame begin intervals", None),
    "frame_latency_encode_seconds": (
        "histogram",
        "Capture to send-pump flush (includes retransmission holds)",
        None,
    ),
    "frame_latency_wire_seconds": (
        "histogram",
        "Send-pump flush to datagram arrival (offset-aligned)",
        None,
    ),
    "frame_latency_decode_seconds": (
        "histogram",
        "Datagram arrival to decoded inputs buffered",
        None,
    ),
    "frame_latency_gate_seconds": (
        "histogram",
        "Inputs buffered to the lockstep gate opening",
        None,
    ),
    "frame_latency_step_seconds": (
        "histogram",
        "Gate open to the frame stepped (emulation compute)",
        None,
    ),
    "frame_latency_present_seconds": (
        "histogram",
        "Frame stepped to presented (zero in bundled drivers)",
        None,
    ),
    "frame_latency_total_seconds": (
        "histogram",
        "Remote capture to local present, end to end",
        None,
    ),
    "sync_stall_seconds": ("histogram", "Time blocked in SyncInput per frame", None),
    "sync_adjust_seconds": (
        "histogram",
        "Absolute SyncAdjustTimeDelta per frame (Alg. 4)",
        None,
    ),
    "rollback_depth_frames": (
        "histogram",
        "Frames replayed per rollback (timewarp variant)",
        None,
    ),
}


def catalog_help() -> Dict[str, str]:
    """name → help, in the shape :func:`to_prometheus` takes."""
    return {name: entry[1] for name, entry in METRIC_CATALOG.items()}


def _series_name(name: str, kind: str) -> str:
    """The exposition series whose presence proves the metric is wired."""
    if kind == "counter":
        return f"{PROM_PREFIX}{name}_total"
    if kind == "histogram":
        return f"{PROM_PREFIX}{name}_count"
    return f"{PROM_PREFIX}{name}"


def parse_exposition(text: str) -> Dict[str, Dict[str, float]]:
    """series name → {label string → value} for a text exposition."""
    series: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head:
            continue
        brace = head.find("{")
        if brace >= 0:
            name, labels = head[:brace], head[brace:]
        else:
            name, labels = head, ""
        try:
            parsed = float(value)
        except ValueError:
            continue
        series.setdefault(name, {})[labels] = parsed
    return series


def check_exposition(text: str) -> List[str]:
    """Problems with one scrape: catalog metrics missing from the text."""
    series = parse_exposition(text)
    problems: List[str] = []
    for name, (kind, _help, _read) in METRIC_CATALOG.items():
        expected = _series_name(name, kind)
        if expected not in series:
            problems.append(f"missing {kind} series {expected}")
    return problems


def check_monotonic(before: str, after: str) -> List[str]:
    """Problems between two scrapes: monotone series that went down."""
    first = parse_exposition(before)
    second = parse_exposition(after)
    problems: List[str] = []
    for name, (kind, _help, _read) in METRIC_CATALOG.items():
        if kind == "gauge":
            continue
        series = _series_name(name, kind)
        for labels, value in first.get(series, {}).items():
            later = second.get(series, {}).get(labels)
            if later is None:
                problems.append(f"{series}{labels} disappeared between scrapes")
            elif later < value:
                problems.append(
                    f"{series}{labels} went down: {value} -> {later}"
                )
    return problems


def run_catalog_check(
    frames: int = 240,
    loss: float = 0.05,
    rtt: float = 0.040,
    seed: int = 3,
    game: str = "counter",
) -> Tuple[List[str], Dict[str, object]]:
    """The CI gate: short lossy two-site session, two scrapes, all checks.

    Returns ``(problems, info)``; an empty problem list means the catalog
    is fully wired and monotone.  ``info`` carries the scrape artifacts
    for debugging.
    """
    # Imported here, not at module level: repro.core imports repro.obs.
    from repro.core.config import SyncConfig
    from repro.core.multisite import build_session, two_player_plan
    from repro.emulator.machine import create_game
    from repro.core.inputs import PadSource, RandomSource
    from repro.net.netem import NetemConfig
    from repro.obs.registry import to_prometheus

    sources = [PadSource(RandomSource(seed + s), s) for s in (0, 1)]
    # timeline=True so the frame_latency_* histograms and SLO/clock gauges
    # actually fill during the check session, not just exist at zero.
    plan = two_player_plan(
        SyncConfig(timeline=True),
        machine_factory=lambda: create_game(game),
        sources=sources,
        max_frames=frames,
        seed=seed,
    )
    session = build_session(plan, NetemConfig.for_rtt(rtt, loss=loss))
    for vm in session.vms:
        vm.start()

    def scrape() -> str:
        return to_prometheus(
            [vm.engine.snapshot() for vm in session.vms],
            help_text=catalog_help(),
        )

    # Mid-run scrape: deep enough into the session that the frame loop and
    # retransmission machinery have all produced samples.
    midpoint = max(1.0, 0.5 * frames / plan.config.cfps)
    session.loop.run(until=midpoint)
    first = scrape()
    session.loop.run(until=600.0)
    unfinished = [vm.runtime.site_no for vm in session.vms if not vm.finished]
    second = scrape()

    problems = check_exposition(first)
    problems += check_exposition(second)
    problems += check_monotonic(first, second)
    if unfinished:
        problems.append(f"sites {unfinished} did not finish the check session")
    info: Dict[str, object] = {
        "first_scrape": first,
        "second_scrape": second,
        "frames": frames,
        "loss": loss,
        "ground_truth": session.network.ground_truth(),
    }
    return problems, info
