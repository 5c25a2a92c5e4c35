"""The metric catalog and the exposition checker CI runs.

:data:`METRIC_CATALOG` is the contract: every instrument a
:class:`~repro.obs.site.SiteMetrics` registers, its kind, whether it must
be monotone, and its help text.  Because all instruments are created at
``SiteMetrics`` construction (zero-valued until touched), every catalog
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

from typing import Dict, List, Tuple

from repro.obs.registry import PROM_PREFIX

#: name → (kind, monotonic, help).  Kind is "counter" / "gauge" /
#: "histogram"; monotonic applies to the counter value (or the histogram's
#: ``_count``), never to gauges.
METRIC_CATALOG: Dict[str, Tuple[str, bool, str]] = {
    "frames": ("counter", True, "Frames presented (Present effects)"),
    "stalls": ("counter", True, "Frames that blocked in SyncInput"),
    "datagrams_sent": ("counter", True, "Datagrams emitted (Send effects)"),
    "datagrams_received": ("counter", True, "Datagrams fed to the engine"),
    "bytes_sent": ("counter", True, "Payload bytes emitted"),
    "bytes_received": ("counter", True, "Payload bytes received"),
    "net_bytes_tx": (
        "counter",
        True,
        "Wire bytes emitted by the outbox (after batching)",
    ),
    "net_bytes_rx": (
        "counter",
        True,
        "Wire bytes successfully decoded (bytes_received counts all)",
    ),
    "net_batch_coalesced": (
        "counter",
        True,
        "Datagrams that carried a coalesced Batch of 2+ messages",
    ),
    "net_budget_deferrals": (
        "counter",
        True,
        "Messages dropped by the bandwidth budget (resent by the window)",
    ),
    "net_decode_errors": (
        "counter",
        True,
        "Datagrams/messages rejected by the decoder or by SYNC validation",
    ),
    "sync_sent": ("counter", True, "Algorithm 2 sd messages sent"),
    "sync_received": ("counter", True, "Algorithm 2 rc messages received"),
    "inputs_sent": ("counter", True, "Input frames put on the wire"),
    "retransmitted_inputs": (
        "counter",
        True,
        "Input frames re-sent because an ack was outstanding",
    ),
    "duplicate_inputs": (
        "counter",
        True,
        "Received input frames already buffered (dup suppression)",
    ),
    "out_of_window_inputs": (
        "counter",
        True,
        "Received sync windows not contiguous with the buffer (gap)",
    ),
    "frames_delivered": ("counter", True, "Merged inputs delivered (line 22)"),
    "lag_changes": ("counter", True, "Adaptive local-lag resizes"),
    "pacer_overruns": ("counter", True, "Frames that overran their slot (Alg. 3)"),
    "pacer_sync_adjust_clamped": (
        "counter",
        True,
        "Alg. 4 corrections cut to ±SYNC_ADJUST_CLAMP_FRAMES (slave only)",
    ),
    "degraded_episodes": (
        "counter",
        True,
        "Gate stalls that crossed soft_stall_s (lockstep.degraded_episodes)",
    ),
    "suspended_seconds": (
        "counter",
        True,
        "Total time the gate spent suspended (lockstep.suspended_s)",
    ),
    "resumes": (
        "counter",
        True,
        "Recoveries from suspension, incl. RESUME rejoins (session.resumes)",
    ),
    "send_errors": (
        "counter",
        True,
        "Datagram sends that failed at the OS/transport (net.send_errors)",
    ),
    "rollbacks": ("counter", True, "Speculation rollbacks (timewarp variant)"),
    "rollback_delta_bytes": (
        "counter",
        True,
        "Bytes copied by shadow-to-speculative restores",
    ),
    "policy_switches": (
        "counter",
        True,
        "Committed lockstep/rollback mode switches (consistency policy)",
    ),
    "state_serves": ("counter", True, "Late-join savestates served"),
    "state_serve_bytes": ("counter", True, "Savestate bytes served to joiners"),
    "state_acquire_bytes": (
        "counter",
        True,
        "Savestate bytes loaded when joining late",
    ),
    "desync_detected": (
        "counter",
        True,
        "Live state-digest mismatches proven against a peer",
    ),
    "resync_attempts": (
        "counter",
        True,
        "Desync-recovery episodes opened (freeze + restore + replay)",
    ),
    "resync_success": (
        "counter",
        True,
        "Recovery episodes that re-proved bit-identical state",
    ),
    "resync_seconds": (
        "counter",
        True,
        "Simulated seconds spent frozen inside recovery episodes",
    ),
    "state_crc_errors": (
        "counter",
        True,
        "State-transfer payloads rejected by the end-to-end CRC",
    ),
    "digest_bytes_tx": (
        "counter",
        True,
        "Wire bytes spent on state-digest piggybacks",
    ),
    "switch_log_evictions": (
        "counter",
        True,
        "Adaptive switch-log entries evicted by the retention cap",
    ),
    "slo_breaches": (
        "counter",
        True,
        "Attributed frames whose capture-to-present latency broke the budget",
    ),
    "ack_lag_frames": (
        "gauge",
        False,
        "Own frames not yet acked by the slowest peer",
    ),
    "local_lag_frames": ("gauge", False, "Local lag (BufFrame) in effect"),
    "buf_frame_current": (
        "gauge",
        False,
        "Live BufFrame after adaptive tuning (mirrors local_lag_frames)",
    ),
    "predict_hit_ratio": (
        "gauge",
        False,
        "Fraction of speculated frames whose input prediction held up",
    ),
    "rtt_seconds": ("gauge", False, "Smoothed round-trip estimate"),
    "frame_number": ("gauge", False, "Current frame counter"),
    "adjust_time_delta_seconds": (
        "gauge",
        False,
        "Carried pacing compensation (Alg. 3)",
    ),
    "clock_offset_seconds": (
        "gauge",
        False,
        "Estimated peer clock offset theta (NTP-style, min-delay filtered)",
    ),
    "clock_offset_drift": (
        "gauge",
        False,
        "Estimated peer clock drift (seconds of offset change per second)",
    ),
    "slo_score": (
        "gauge",
        False,
        "Fraction of recent attributed frames within the latency budget",
    ),
    "cpu_blocks_compiled": (
        "counter",
        True,
        "RC-16 regions compiled by the block translator",
    ),
    "cpu_block_hits": (
        "counter",
        True,
        "Entries into a compiled region closure (one may run many blocks)",
    ),
    "cpu_block_invalidations": (
        "counter",
        True,
        "Compiled regions discarded because their bytes changed (SMC)",
    ),
    "cpu_fallback_steps": (
        "counter",
        True,
        "Instructions single-stepped by the reference interpreter in block mode",
    ),
    "frame_time_seconds": ("histogram", True, "Frame-to-frame begin intervals"),
    "frame_latency_encode_seconds": (
        "histogram",
        True,
        "Capture to send-pump flush (includes retransmission holds)",
    ),
    "frame_latency_wire_seconds": (
        "histogram",
        True,
        "Send-pump flush to datagram arrival (offset-aligned)",
    ),
    "frame_latency_decode_seconds": (
        "histogram",
        True,
        "Datagram arrival to decoded inputs buffered",
    ),
    "frame_latency_gate_seconds": (
        "histogram",
        True,
        "Inputs buffered to the lockstep gate opening",
    ),
    "frame_latency_step_seconds": (
        "histogram",
        True,
        "Gate open to the frame stepped (emulation compute)",
    ),
    "frame_latency_present_seconds": (
        "histogram",
        True,
        "Frame stepped to presented (zero in bundled drivers)",
    ),
    "frame_latency_total_seconds": (
        "histogram",
        True,
        "Remote capture to local present, end to end",
    ),
    "sync_stall_seconds": ("histogram", True, "Time blocked in SyncInput per frame"),
    "sync_adjust_seconds": (
        "histogram",
        True,
        "Absolute SyncAdjustTimeDelta per frame (Alg. 4)",
    ),
    "rollback_depth_frames": (
        "histogram",
        True,
        "Frames replayed per rollback (timewarp variant)",
    ),
}


def catalog_help() -> Dict[str, str]:
    """name → help, in the shape :func:`to_prometheus` takes."""
    return {name: entry[2] for name, entry in METRIC_CATALOG.items()}


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
    for name, (kind, _monotonic, _help) in METRIC_CATALOG.items():
        expected = _series_name(name, kind)
        if expected not in series:
            problems.append(f"missing {kind} series {expected}")
    return problems


def check_monotonic(before: str, after: str) -> List[str]:
    """Problems between two scrapes: monotone series that went down."""
    first = parse_exposition(before)
    second = parse_exposition(after)
    problems: List[str] = []
    for name, (kind, monotonic, _help) in METRIC_CATALOG.items():
        if not monotonic:
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
