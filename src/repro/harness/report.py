"""Text tables mirroring the paper's figures.

The paper reports Figures 1 and 2 as line charts; these formatters print
the underlying series as aligned tables (plus a crude sparkline so the
shape is visible in a terminal), which is what ``repro reproduce`` prints.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.harness.series1 import PROBE_RTTS


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Generic fixed-width table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def sparkline(values: Sequence[float]) -> str:
    """One-character-per-point magnitude strip."""
    glyphs = " .:-=+*#%@"
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return glyphs[0] * len(values)
    return "".join(
        glyphs[min(len(glyphs) - 1, int(v / top * (len(glyphs) - 1)))]
        for v in values
    )


def format_series1(rows) -> str:
    """Figure 1: frame rates and smoothness — the master's (site 0, what
    the paper's claims are checked against), then the slave's."""
    table = format_table(
        [
            "RTT(ms)",
            "frame_time(ms)",
            "mad(ms)",
            "FPS",
            "slave_ft(ms)",
            "slave_mad(ms)",
            "verified",
        ],
        [
            [
                f"{r.rtt * 1000:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                f"{r.fps:.1f}",
                f"{r.slave_frame_time_mean * 1000:.2f}",
                f"{r.slave_frame_time_mad * 1000:.2f}",
                r.frames_verified,
            ]
            for r in rows
        ],
    )
    shape = sparkline([r.frame_time_mean for r in rows])
    shape_mad = sparkline([r.frame_time_mad for r in rows])
    return (
        "Figure 1 — frame rates and smoothness vs RTT\n"
        f"{table}\n"
        f"frame time shape: [{shape}]\n"
        f"deviation shape:  [{shape_mad}]"
    )


def format_series2(rows) -> str:
    """Figure 2: synchrony between two sites."""
    table = format_table(
        ["RTT(ms)", "sync_diff(ms)", "verified"],
        [
            [
                f"{r.rtt * 1000:.0f}",
                f"{r.synchrony * 1000:.2f}",
                r.frames_verified,
            ]
            for r in rows
        ],
    )
    shape = sparkline([r.synchrony for r in rows])
    return (
        "Figure 2 — synchrony between two sites vs RTT\n"
        f"{table}\n"
        f"synchrony shape: [{shape}]"
    )


def format_series3(rows) -> str:
    """Loss sweep (journal extension)."""
    return "Series 3 — packet loss sweep\n" + format_table(
        ["loss(%)", "frame_time(ms)", "mad(ms)", "sync(ms)", "retx", "dups", "verified"],
        [
            [
                f"{r.loss * 100:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                f"{r.synchrony * 1000:.2f}",
                r.retransmitted_inputs,
                r.duplicate_inputs,
                r.frames_verified,
            ]
            for r in rows
        ],
    )


def format_pacing_ablation(rows) -> str:
    return "Ablation 1 — Algorithm 4 (master/slave pacing)\n" + format_table(
        ["skew(ms)", "alg4", "master_mad(ms)", "slave_mad(ms)", "sync(ms)"],
        [
            [
                f"{r.start_skew * 1000:.0f}",
                "on" if r.master_slave_pacing else "off",
                f"{r.master_mad * 1000:.2f}",
                f"{r.slave_mad * 1000:.2f}",
                f"{r.synchrony * 1000:.2f}",
            ]
            for r in rows
        ],
    )


def format_transport_ablation(rows) -> str:
    return "Ablation 2 — UDP+selective-repeat vs TCP-like transport\n" + format_table(
        ["transport", "loss(%)", "frame_time(ms)", "mad(ms)", "verified"],
        [
            [
                r.transport,
                f"{r.loss * 100:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                r.frames_verified,
            ]
            for r in rows
        ],
    )


def format_lag_ablation(rows) -> str:
    return "Ablation 3 — local lag (BufFrame) sweep\n" + format_table(
        ["BufFrame", "lag(ms)", "RTT(ms)", "frame_time(ms)", "mad(ms)"],
        [
            [
                r.buf_frame,
                f"{r.local_lag * 1000:.0f}",
                f"{r.rtt * 1000:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
            ]
            for r in rows
        ],
    )


def format_adaptive_lag_ablation(rows) -> str:
    return "Ablation 5 — fixed vs adaptive local lag\n" + format_table(
        ["scenario", "lag policy", "RTT(ms)", "frame_time(ms)", "mad(ms)", "mean_lag(ms)", "max_lag(ms)", "changes"],
        [
            [
                r.scenario,
                "adaptive" if r.adaptive else "fixed 100ms",
                f"{r.rtt_high * 1000:.0f}"
                if r.scenario == "steady"
                else f"{r.rtt_low * 1000:.0f}-{r.rtt_high * 1000:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                f"{r.mean_lag * 1000:.0f}",
                f"{r.max_lag * 1000:.0f}",
                r.lag_changes,
            ]
            for r in rows
        ],
    )


def format_batching_ablation(rows) -> str:
    return "Ablation 4 — send batching interval sweep\n" + format_table(
        ["flush(ms)", "RTT(ms)", "frame_time(ms)", "mad(ms)", "datagrams"],
        [
            [
                f"{r.send_interval * 1000:.0f}",
                f"{r.rtt * 1000:.0f}",
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                r.datagrams_sent,
            ]
            for r in rows
        ],
    )


def format_threshold(rows) -> str:
    return "§4.2 threshold budget\n" + format_table(
        ["configuration", "threshold RTT (ms)"],
        [
            [
                r.configuration,
                f">{PROBE_RTTS[-1] * 1000:.0f}"
                if r.threshold_rtt is None
                else f"{r.threshold_rtt * 1000:.0f}",
            ]
            for r in rows
        ],
    )


def format_multisite(rows) -> str:
    return "Ext-A: session size scaling (RTT 40 ms)\n" + format_table(
        ["players", "observers", "frame_time(ms)", "mad(ms)", "sync(ms)"],
        [
            [
                r.players,
                r.observers,
                f"{r.frame_time_mean * 1000:.2f}",
                f"{r.frame_time_mad * 1000:.2f}",
                f"{r.synchrony * 1000:.2f}",
            ]
            for r in rows
        ],
    )


def format_latejoin(rows) -> str:
    return "Ext-B: late-join cost per game\n" + format_table(
        ["game", "savestate(B)", "on-wire(B)", "joined@frame", "verified", "player ft(ms)"],
        [
            [
                r.game,
                r.snapshot_bytes,
                r.wire_bytes,
                r.joined_at_frame,
                r.overlap_verified,
                f"{r.player_frame_time * 1000:.2f}",
            ]
            for r in rows
        ],
    )


def format_rollback(rows) -> str:
    return "Ext-D: rollback (zero lag) vs lockstep (100 ms lag)\n" + format_table(
        [
            "RTT(ms)",
            "lockstep ft(ms)",
            "lockstep lag(ms)",
            "rollback ft(ms)",
            "rollback lag(ms)",
            "rollback rate",
            "replay overhead",
            "max depth",
            "overhead (calm pads)",
        ],
        [
            [
                f"{r.rtt * 1000:.0f}",
                f"{r.lockstep_frame_time * 1000:.2f}",
                "100",
                f"{r.frame_time * 1000:.2f}",
                "0",
                f"{r.rollback_rate * 100:.0f}%",
                f"{r.replay_overhead * 100:.0f}%",
                r.max_depth,
                f"{r.calm_replay_overhead * 100:.0f}%",
            ]
            for r in rows
        ],
    )


def format_bandwidth(rows) -> str:
    return "Ext-E: sync bandwidth per site (RTT 40 ms)\n" + format_table(
        ["players", "flush(ms)", "sent (B/s)", "recv (B/s)", "datagrams/s"],
        [
            [
                r.players,
                f"{r.send_interval * 1000:.0f}",
                f"{r.sent_Bps:.0f}",
                f"{r.received_Bps:.0f}",
                f"{r.datagrams_per_s:.1f}",
            ]
            for r in rows
        ],
    )
