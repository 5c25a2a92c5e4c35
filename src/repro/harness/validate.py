"""Validate reproduction results against the paper's claims.

``python -m repro validate results/results.json`` re-checks every
qualitative claim of the paper (and of this repo's extensions) against a
previously generated results file — the regression gate for protocol
changes: if an edit moves a curve enough to break a claim, this fails
naming the claim.

Claims are deliberately *qualitative* (plateaus, orderings, thresholds),
matching the reproduction contract: shapes must hold, absolute
milliseconds may differ from the 2009 testbed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.harness.reproduce import experiment_frames
from repro.harness.series1 import BUDGET_VARIANTS, Series1Row, find_threshold

TPF = 1 / 60


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.claim} — {self.detail}"


class ValidationError(ValueError):
    """The results file is missing experiments a claim needs."""


def _rows(results: dict, experiment: str) -> List[dict]:
    try:
        return results["experiments"][experiment]
    except KeyError as exc:
        raise ValidationError(
            f"results file lacks experiment {experiment!r}"
        ) from exc


def _one(rows: List[dict], **match) -> dict:
    """The one row whose fields equal ``match``."""
    found = [r for r in rows if all(r[k] == v for k, v in match.items())]
    if len(found) != 1:
        raise ValidationError(f"{len(found)} rows match {match}")
    return found[0]


def _all_verified(results: dict, experiment: str):
    """(every run verified every frame it was asked for, detail)."""
    try:
        frames = experiment_frames(experiment, results["meta"]["frames"])
    except KeyError as exc:
        raise ValidationError("results file lacks meta.frames") from exc
    rows = _rows(results, experiment)
    good = sum(1 for r in rows if r["frames_verified"] == frames)
    return good == len(rows), f"{good}/{len(rows)} runs verified all {frames} frames"


# ----------------------------------------------------------------------
# Claim checks.  Each returns (passed, detail).
# ----------------------------------------------------------------------
def _claim_figure1_plateau(results: dict):
    rows = [r for r in _rows(results, "figure1") if r["rtt"] <= 0.100]
    worst = max(abs(r["frame_time_mean"] - TPF) for r in rows)
    verified, detail = _all_verified(results, "figure1")
    return worst < 0.001 and verified, (
        f"max |frame_time − 16.67ms| below RTT 100ms: {worst * 1000:.2f}ms; {detail}"
    )


def _claim_figure1_smooth_below_threshold(results: dict):
    rows = [r for r in _rows(results, "figure1") if r["rtt"] <= 0.130]
    worst = max(r["frame_time_mad"] for r in rows)
    return worst < 0.005, f"max deviation below RTT 130ms: {worst * 1000:.2f}ms"


def _claim_figure1_threshold_exists(results: dict):
    threshold = find_threshold(Series1Row(**r) for r in _rows(results, "figure1"))
    if threshold is None:
        return False, "no RTT shows the deviation jump"
    return True, f"deviation jump first seen at RTT {threshold * 1000:.0f}ms"


def _claim_figure1_degrades_past_threshold(results: dict):
    rows = _rows(results, "figure1")
    last = max(rows, key=lambda r: r["rtt"])
    return (
        last["frame_time_mean"] > TPF * 1.15,
        f"frame time at RTT {last['rtt'] * 1000:.0f}ms: "
        f"{last['frame_time_mean'] * 1000:.2f}ms",
    )


def _claim_figure2_synchrony_plateau(results: dict):
    rows = [r for r in _rows(results, "figure2") if r["rtt"] <= 0.130]
    worst = max(r["synchrony"] for r in rows)
    verified, detail = _all_verified(results, "figure2")
    return worst < 0.010 and verified, (
        f"max synchrony below RTT 130ms: {worst * 1000:.2f}ms; {detail}"
    )


def _claim_figure2_rises_past_threshold(results: dict):
    rows = _rows(results, "figure2")
    plateau = max(r["synchrony"] for r in rows if r["rtt"] <= 0.130)
    peak = max(r["synchrony"] for r in rows)
    return peak > plateau * 2, (
        f"peak synchrony {peak * 1000:.1f}ms vs plateau {plateau * 1000:.1f}ms"
    )


def _claim_loss_absorbed(results: dict):
    rows = sorted(_rows(results, "loss"), key=lambda r: r["loss"])
    worst = max(r["frame_time_mean"] for r in rows if r["loss"] <= 0.05)
    verified, detail = _all_verified(results, "loss")
    retx = (rows[0]["retransmitted_inputs"], rows[-1]["retransmitted_inputs"])
    return (
        worst < TPF * 1.05 and verified and retx[1] >= retx[0],
        f"frame time at ≤5% loss: {worst * 1000:.2f}ms; {detail}; "
        f"retransmitted inputs {retx[0]} → {retx[1]}",
    )


def _claim_algorithm4_required(results: dict):
    rows = _rows(results, "ablation_pacing")
    skews = sorted({r["start_skew"] for r in rows if r["start_skew"] > 0})
    if not skews:
        raise ValidationError("pacing ablation has no skewed runs")
    passed, details = True, []
    for skew in skews:
        on = _one(rows, start_skew=skew, master_slave_pacing=True)
        off = _one(rows, start_skew=skew, master_slave_pacing=False)
        passed &= on["synchrony"] < off["synchrony"]
        passed &= on["master_overrun_stalls"] <= off["master_overrun_stalls"]
        details.append(
            f"{skew * 1000:.0f}ms skew: synchrony {on['synchrony'] * 1000:.1f} vs "
            f"{off['synchrony'] * 1000:.1f}ms, master stall "
            f"{on['master_overrun_stalls'] * 1000:.2f} vs "
            f"{off['master_overrun_stalls'] * 1000:.2f}ms (on vs off)"
        )
    return passed, "; ".join(details)


def _claim_tcp_is_worse_under_loss(results: dict):
    rows = _rows(results, "ablation_transport")
    losses = sorted({r["loss"] for r in rows if r["loss"] > 0})
    if not losses:
        raise ValidationError("transport ablation has no lossy runs")
    loss = losses[-1]
    udp = _one(rows, transport="udp", loss=loss)
    tcp = _one(rows, transport="tcp", loss=loss)
    verified, detail = _all_verified(results, "ablation_transport")
    return (
        tcp["frame_time_mad"] > udp["frame_time_mad"] * 3 and verified,
        f"MAD at {loss * 100:.0f}% loss: tcp {tcp['frame_time_mad'] * 1000:.2f}ms "
        f"vs udp {udp['frame_time_mad'] * 1000:.2f}ms; {detail}",
    )


def _claim_local_lag_is_the_knee(results: dict):
    rows = sorted(_rows(results, "ablation_lag"), key=lambda r: r["buf_frame"])
    by_buf = {r["buf_frame"]: r["frame_time_mean"] for r in rows}
    if not {0, 6, 12} <= set(by_buf):
        raise ValidationError("lag ablation lacks buf 0 / 6 / 12 rows")
    times = [r["frame_time_mean"] for r in rows]
    monotone = all(a >= b - 0.001 for a, b in zip(times, times[1:]))
    return (
        by_buf[0] > TPF * 1.5
        and by_buf[0] > by_buf[6] * 1.2
        and by_buf[6] < TPF * 1.05
        and by_buf[12] < TPF * 1.05
        and monotone,
        f"frame time: buf0 {by_buf[0] * 1000:.1f}ms, buf6 {by_buf[6] * 1000:.2f}ms, "
        f"buf12 {by_buf[12] * 1000:.2f}ms; falls as lag grows: {monotone}",
    )


def _claim_batching_trades_bytes_for_budget(results: dict):
    rows = sorted(_rows(results, "ablation_batching"), key=lambda r: r["send_interval"])
    fastest, slowest = rows[0], rows[-1]
    datagrams = [r["datagrams_sent"] for r in rows]
    return (
        fastest["frame_time_mad"] < slowest["frame_time_mad"]
        and all(a >= b for a, b in zip(datagrams, datagrams[1:])),
        f"{fastest['send_interval'] * 1000:.0f}ms flush: "
        f"mad {fastest['frame_time_mad'] * 1000:.2f}ms; "
        f"{slowest['send_interval'] * 1000:.0f}ms flush: "
        f"mad {slowest['frame_time_mad'] * 1000:.2f}ms; datagrams {datagrams}",
    )


def _claim_adaptive_lag_does_not_pay_off(results: dict):
    rows = _rows(results, "ablation_adaptive")
    steady_fixed = _one(rows, scenario="steady", adaptive=False)
    steady_adaptive = _one(rows, scenario="steady", adaptive=True)
    fluct_fixed = _one(rows, scenario="fluctuating", adaptive=False)
    fluct_adaptive = _one(rows, scenario="fluctuating", adaptive=True)
    return (
        steady_adaptive["frame_time_mad"] < steady_fixed["frame_time_mad"] / 4
        and steady_adaptive["mean_lag"] > steady_fixed["mean_lag"] * 1.3
        and fluct_adaptive["lag_changes"] >= 3
        and fluct_adaptive["frame_time_mad"] > fluct_fixed["frame_time_mad"] * 0.5,
        f"steady: adaptive rescues pacing at {steady_adaptive['mean_lag'] * 1000:.0f}ms "
        f"lag; fluctuating: {fluct_adaptive['lag_changes']} lag changes, MAD "
        f"{fluct_adaptive['frame_time_mad'] * 1000:.2f} vs "
        f"{fluct_fixed['frame_time_mad'] * 1000:.2f}ms fixed",
    )


def _thresholds(results: dict) -> List[float]:
    """Threshold RTT per :data:`BUDGET_VARIANTS` entry; no jump reads as ∞."""
    rows = _rows(results, "threshold")
    found = [_one(rows, configuration=name)["threshold_rtt"] for name, __ in BUDGET_VARIANTS]
    return [float("inf") if t is None else t for t in found]


def _claim_threshold_slice(results: dict):
    paper, __, no_slice, __, __ = _thresholds(results)
    return no_slice >= paper, f"{no_slice * 1000:.0f} vs {paper * 1000:.0f}ms"


def _claim_threshold_batching(results: dict):
    paper, __, __, tight, __ = _thresholds(results)
    return tight > paper, f"{tight * 1000:.0f} vs {paper * 1000:.0f}ms"


def _claim_threshold_lag(results: dict):
    paper, __, __, __, longer = _thresholds(results)
    return longer >= paper + 0.030, f"{longer * 1000:.0f} vs {paper * 1000:.0f}ms"


def _claim_multisite_holds_rate(results: dict):
    worst = max(r["frame_time_mean"] for r in _rows(results, "multisite"))
    return worst < TPF * 1.05, f"slowest session: {worst * 1000:.2f}ms"


def _claim_observers_are_free(results: dict):
    rows = _rows(results, "multisite")
    bare = _one(rows, players=2, observers=0)["frame_time_mean"]
    watched = _one(rows, players=2, observers=2)["frame_time_mean"]
    return watched < bare * 1.05, (
        f"2 players: {bare * 1000:.2f}ms; with 2 observers: {watched * 1000:.2f}ms"
    )


def _claim_latejoin_converges(results: dict):
    overlaps = {r["game"]: r["overlap_verified"] for r in _rows(results, "latejoin")}
    return all(n > 0 for n in overlaps.values()), f"frames verified with the joiner: {overlaps}"


def _claim_latejoin_players_unaffected(results: dict):
    worst = max(r["player_frame_time"] for r in _rows(results, "latejoin"))
    return worst < TPF * 1.05, f"slowest player frame time: {worst * 1000:.2f}ms"


def _claim_latejoin_console_state(results: dict):
    size = _one(_rows(results, "latejoin"), game="pong")["snapshot_bytes"]
    return size > 60_000, f"pong savestate: {size} B"


def _claim_latejoin_python_state(results: dict):
    size = _one(_rows(results, "latejoin"), game="counter")["snapshot_bytes"]
    return size < 100, f"counter savestate: {size} B"


def _rollback_by_rtt(results: dict) -> List[dict]:
    return sorted(_rows(results, "rollback"), key=lambda r: r["rtt"])


def _claim_rollback_holds_rate(results: dict):
    first = _rollback_by_rtt(results)[0]
    return first["frame_time"] < TPF * 1.05, (
        f"rollback frame time at RTT {first['rtt'] * 1000:.0f}ms: "
        f"{first['frame_time'] * 1000:.2f}ms"
    )


def _claim_rollback_replay_grows(results: dict):
    overheads = [r["replay_overhead"] for r in _rollback_by_rtt(results)]
    return overheads[-1] > overheads[0], (
        f"replay overhead {overheads[0] * 100:.0f}% → {overheads[-1] * 100:.0f}%"
    )


def _claim_rollback_calm_replays_less(results: dict):
    pairs = [(r["calm_replay_overhead"], r["replay_overhead"]) for r in _rollback_by_rtt(results)]
    return all(calm <= busy for calm, busy in pairs), (
        "calm vs busy pads: "
        + ", ".join(f"{calm * 100:.0f}/{busy * 100:.0f}%" for calm, busy in pairs)
    )


def _claim_rollback_depth_grows(results: dict):
    depths = [r["max_depth"] for r in _rollback_by_rtt(results)]
    return depths[-1] >= depths[0], f"max replay depth {depths[0]} → {depths[-1]}"


def _bandwidth_sent(results: dict, players: int, send_interval: float) -> float:
    return _one(
        _rows(results, "bandwidth"), players=players, send_interval=send_interval
    )["sent_Bps"]


def _claim_bandwidth_grows_with_players(results: dict):
    sent = [
        r["sent_Bps"]
        for r in sorted(_rows(results, "bandwidth"), key=lambda r: r["players"])
        if r["send_interval"] == 0.020
    ]
    return all(a < b for a, b in zip(sent, sent[1:])), (
        "sent per site at 20ms flush: " + ", ".join(f"{b:.0f}" for b in sent) + " B/s"
    )


def _claim_bandwidth_flush_costs_bytes(results: dict):
    fast, paper = _bandwidth_sent(results, 2, 0.005), _bandwidth_sent(results, 2, 0.020)
    return fast > paper, f"5ms flush: {fast:.0f} B/s; 20ms: {paper:.0f} B/s"


def _claim_bandwidth_not_excessive(results: dict):
    sent = _bandwidth_sent(results, 2, 0.020)
    return sent < 10_000, f"two players at 20ms flush: {sent:.0f} B/s per site"


CLAIMS: Dict[str, Callable[[dict], tuple]] = {
    "Figure 1: 60 FPS plateau below RTT 100 ms": _claim_figure1_plateau,
    "Figure 1: near-zero deviation below the threshold": _claim_figure1_smooth_below_threshold,
    "Figure 1: a deviation-jump threshold exists": _claim_figure1_threshold_exists,
    "Figure 1: the game slows past the threshold": _claim_figure1_degrades_past_threshold,
    "Figure 2: cross-site synchrony < 10 ms below the threshold": _claim_figure2_synchrony_plateau,
    "Figure 2: synchrony rises quickly past the threshold": _claim_figure2_rises_past_threshold,
    "§4.2: without the thread slice the threshold does not fall": _claim_threshold_slice,
    "§4.2: a 2 ms flush raises the threshold": _claim_threshold_batching,
    "§4.2: two more frames of local lag buy ≥ 30 ms of RTT": _claim_threshold_lag,
    "Journal: moderate packet loss is absorbed by the lag budget": _claim_loss_absorbed,
    "Ext-A: 2–4 players hold 60 FPS at RTT 40 ms": _claim_multisite_holds_rate,
    "Ext-A: observers are free": _claim_observers_are_free,
    "Ext-B: every late joiner converges with the players": _claim_latejoin_converges,
    "Ext-B: the players hold 60 FPS through a join": _claim_latejoin_players_unaffected,
    "Ext-B: the console transfers its whole 64 KiB machine": _claim_latejoin_console_state,
    "Ext-B: a pure-Python game's savestate is under 100 B": _claim_latejoin_python_state,
    "§3.2: Algorithm 4 is required under start-up skew": _claim_algorithm4_required,
    "§3.1: a TCP-like transport is less smooth under loss": _claim_tcp_is_worse_under_loss,
    "§4.2: 100 ms local lag is the knee of the trade-off": _claim_local_lag_is_the_knee,
    "§4.2: send batching trades bandwidth for latency budget": _claim_batching_trades_bytes_for_budget,
    "§4.2: adaptive local lag does not pay off": _claim_adaptive_lag_does_not_pay_off,
    "§5: the rollback shadow verifies every frame": lambda r: _all_verified(r, "rollback"),
    "§5: rollback holds 60 FPS with zero local lag": _claim_rollback_holds_rate,
    "§5: rollback's replay overhead grows with RTT": _claim_rollback_replay_grows,
    "§5: calm pads replay less than busy ones": _claim_rollback_calm_replays_less,
    "§5: rollback's speculation depth grows with RTT": _claim_rollback_depth_grows,
    "Ext-E: per-site bandwidth grows with player count": _claim_bandwidth_grows_with_players,
    "Ext-E: a faster flush costs more bytes": _claim_bandwidth_flush_costs_bytes,
    "Ext-E: two players need under 10 kB/s per site": _claim_bandwidth_not_excessive,
}


def validate_results(results: dict) -> List[ClaimResult]:
    """Check every claim; returns one :class:`ClaimResult` per claim."""
    outcomes = []
    for claim, check in CLAIMS.items():
        try:
            passed, detail = check(results)
        except ValidationError as exc:
            outcomes.append(ClaimResult(claim, False, f"not checkable: {exc}"))
            continue
        outcomes.append(ClaimResult(claim, bool(passed), detail))
    return outcomes


def validate_file(path: str) -> List[ClaimResult]:
    with open(path) as handle:
        return validate_results(json.load(handle))
