"""Run one session, check its outputs, and turn what it left into metrics.

End-to-end metrics are read from what every session already records —
``FrameTrace`` begin times, checksums and stalls, socket byte counters —
plus the process's CPU clock, read every tenth of a second of session time
next to a :mod:`yardstick` reading.  The per-layer metrics come from one
traced run (:mod:`tracer`) and the stats objects the layers keep anyway.
Nothing here times with the tracer installed and reports it as an
end-to-end number.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.stats import (
    absolute_average,
    mean,
    mean_abs_deviation,
    percentile,
)

from tracer import LAYERS, Tracer
from workloads import FPS, TICK, Prepared, SiteView, Workload
from yardstick import calibrated, yardstick

#: Each site's first frames are left out of every frame-time metric: the
#: start handshake and the first clock-sync corrections are not steady state.
SKIP_FRAMES = 30


class CostSampler:
    """CPU cost of the session, slice by slice, each next to a yardstick.

    Fired every :data:`TICK` of session time, it notes the CPU clock, how
    many frames the sites have presented, and how long the yardstick takes
    right now.  Two consecutive readings bound one slice: the CPU spent on
    its frames, calibrated with the yardstick readings at both ends.
    """

    def __init__(self, sites) -> None:
        self._sites = sites
        #: (cpu at tick, cpu after the yardstick, site-frames, yardstick)
        self._marks: List[tuple] = []

    def tick(self) -> None:
        before = time.process_time()
        reading = yardstick()
        presented = sum(site.runtime.frame for site in self._sites())
        self._marks.append((before, time.process_time(), presented, reading))

    def frame_costs(self) -> List[tuple]:
        """Per full slice: (calibrated, raw) CPU-µs per session frame.

        Slices that presented fewer frames than the frame rate implies
        (handshake, the last frames, linger) are left out, like the first
        frames of every frame-time metric.
        """
        full = 0.75 * 2 * FPS * TICK
        costs = []
        for start, end in zip(self._marks, self._marks[1:]):
            site_frames = end[2] - start[2]
            if site_frames >= full:
                raw = (end[0] - start[1]) * 1e6 / (site_frames / 2)
                costs.append((calibrated(raw, (start[3], end[3])), raw))
        return costs


@dataclass
class SessionResult:
    frames: int
    cpu_s: float
    #: ``CostSampler.frame_costs()`` when the session was sampled.
    frame_costs: List[tuple]
    sites: List[SiteView]
    prepared: Prepared
    #: Frame × site operations that were not presented, or were presented
    #: with a checksum the other site (or the reference driver) disputes.
    failed: int
    error: Optional[str]

    @property
    def attempted(self) -> int:
        return self.frames * 2

    @property
    def raw_frame_us(self) -> float:
        """Uncalibrated CPU-µs per session frame over the whole ``run()``,
        handshake and linger included (the base of the tracing overhead)."""
        return self.cpu_s * 1e6 / self.frames


def run_session(
    workload: Workload,
    seed: int,
    frames: int,
    tracer: Optional[Tracer] = None,
    sample: bool = False,
) -> SessionResult:
    """Build, run and verify one session; traced when ``tracer`` is given,
    its cost sampled slice by slice when ``sample`` is.

    The collector is drained first and paused while the session runs (as
    ``metrics.bench.time_call`` does), so a session is not taxed for the
    garbage of the one before it.
    """
    # Installed before the build: see tracer's module docstring.
    with tracer if tracer is not None else contextlib.nullcontext():
        prepared = workload.build(seed, frames)
        sampler = CostSampler(prepared.sites)
        if sample:
            prepared.on_tick(sampler.tick)
        run = prepared.run
        if tracer is not None:
            run = lambda: tracer.run_root(prepared.run)  # noqa: E731
        error = None
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            try:
                run()
            except Exception as exc:  # a stalled or crashed session: count it
                error = f"{type(exc).__name__}: {exc}"
            cpu_s = time.process_time() - started
        finally:
            gc.enable()
    sites = prepared.sites()
    return SessionResult(
        frames=frames,
        cpu_s=cpu_s,
        frame_costs=sampler.frame_costs(),
        sites=sites,
        prepared=prepared,
        failed=count_failed(prepared, sites, frames),
        error=error,
    )


def count_failed(prepared: Prepared, sites: List[SiteView], frames: int) -> int:
    """Frame × site operations that missed: see :class:`SessionResult`."""
    if len(sites) != 2:
        return frames * 2
    sums = [site.runtime.trace.checksums for site in sites]
    reference = prepared.reference() if prepared.reference is not None else sums[0]
    failed = 0
    for frame in range(frames):
        expected = reference[frame] if frame < len(reference) else None
        for checksums in sums:
            if frame >= len(checksums) or checksums[frame] != expected:
                failed += 1
    return failed


class EndToEnd:
    """Pools the sessions of one run into the end-to-end metrics."""

    def __init__(self) -> None:
        #: (calibrated, raw) CPU-µs per session frame, one per slice.
        self.frame_costs: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._frame_times: List[List[float]] = [[], []]
        self._skews: List[float] = []
        self._bytes = [0, 0]
        self._session_seconds = 0.0

    def add_session(self, result: SessionResult) -> None:
        """Every session of the run: its cost and its correctness."""
        self.frame_costs.extend(result.frame_costs)
        self.attempted += result.attempted
        self.failed += result.failed
        if result.error is not None:
            self.errors.append(result.error)

    def pool_frames(self, result: SessionResult) -> None:
        """The sessions whose frame times and bytes are pooled (one per
        seed of the cycle, so the pool does not depend on how many
        sessions the time box allowed)."""
        traces = [site.runtime.trace for site in result.sites]
        for site, trace in enumerate(traces):
            self._frame_times[site].extend(trace.frame_times()[SKIP_FRAMES:])
            self._bytes[site] += result.sites[site].transport.bytes_sent
        begins = [trace.begin_times for trace in traces]
        common = min(len(b) for b in begins)
        self._skews.extend(
            begins[0][f] - begins[1][f] for f in range(SKIP_FRAMES, common)
        )
        self._session_seconds += result.frames / FPS

    def metrics(self) -> Dict[str, float]:
        pooled = self._frame_times[0] + self._frame_times[1]
        return {
            "session_frame_us": statistics.median(
                cost for cost, __ in self.frame_costs
            ),
            "frame_ms_mean": mean(pooled) * 1e3,
            "frame_ms_p99": percentile(pooled, 99.0) * 1e3,
            # Figure 1's metric at the worst site: the master's frame time
            # is flat, the slave's is not, and one site's reading hides it.
            "frame_dev_ms": max(
                mean_abs_deviation(times) for times in self._frame_times
            )
            * 1e3,
            # Figure 2's metric.
            "site_skew_ms": absolute_average(self._skews) * 1e3,
            "wire_bytes_per_s": max(self._bytes) / self._session_seconds,
        }

    def samples(self) -> int:
        return len(self._frame_times[0]) + len(self._frame_times[1])


def stall_share(result: SessionResult) -> float:
    stalled = sum(
        1
        for site in result.sites
        for stall in site.runtime.trace.sync_stall
        if stall > 0
    )
    return stalled / result.attempted


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: SessionResult, tracer: Tracer, untraced_frame_us: float
) -> Dict[str, float]:
    """The per-layer ledger of one traced session, per session frame."""
    frames = traced.frames
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us"] = tracer.self_ns[layer] / 1e3 / frames
        out[f"{layer}.calls"] = tracer.layer_calls(layer) / frames

    sites = traced.sites
    machines = [site.runtime.machine for site in sites]
    machines += [
        site.engine.spec_machine
        for site in sites
        if hasattr(site.engine, "spec_machine")
    ]
    cpu = [m.cpu_stats() for m in machines if hasattr(m, "cpu_stats")]
    hits = sum(stats["block_hits"] for stats in cpu)
    fallbacks = sum(stats["fallback_steps"] for stats in cpu)
    out["emulator.block_hit_share"] = _ratio(hits, hits + fallbacks)
    out["emulator.block_invalidations"] = (
        sum(stats["block_invalidations"] for stats in cpu) / frames
    )

    rollback = [
        site.runtime.rollback_stats
        for site in sites
        if hasattr(site.runtime, "rollback_stats")
    ]
    rollbacks = sum(stats.rollbacks for stats in rollback)
    predicted = sum(stats.predicted_frames for stats in rollback)
    mispredicted = sum(stats.mispredicted_frames for stats in rollback)
    out["core.rollback.replayed_per_frame"] = (
        sum(stats.replayed_frames for stats in rollback) / frames
    )
    out["core.rollback.predict_hit_ratio"] = 1.0 - _ratio(mispredicted, predicted)
    out["core.rollback.delta_bytes_per_rollback"] = _ratio(
        sum(stats.snapshot_bytes_copied for stats in rollback), rollbacks
    )

    lockstep = [site.runtime.lockstep.stats for site in sites]
    inputs_sent = sum(stats.inputs_sent for stats in lockstep)
    out["core.lockstep.retransmit_share"] = _ratio(
        sum(stats.inputs_retransmitted for stats in lockstep), inputs_sent
    )
    out["core.lockstep.duplicate_share"] = _ratio(
        sum(stats.duplicate_inputs_received for stats in lockstep), inputs_sent
    )
    out["core.lockstep.stall_share"] = stall_share(traced)

    pooled = [
        t for site in sites for t in site.runtime.trace.frame_times()[SKIP_FRAMES:]
    ]
    out["core.pacing.frame_ms_p50"] = percentile(pooled, 50.0) * 1e3

    datagrams = sum(site.transport.datagrams_sent for site in sites)
    out["core.engine.datagrams_per_frame"] = datagrams / frames
    out["core.messages.bytes_per_datagram"] = _ratio(
        sum(site.transport.bytes_sent for site in sites), datagrams
    )
    out["net.udp.wakeups_per_frame"] = (
        tracer.calls["repro.net.udp:AsyncUdpEndpoint.wait"] / frames
    )
    truth = (
        traced.prepared.network.ground_truth()
        if traced.prepared.network is not None
        else {}
    )
    out["net.simnet.dropped_share"] = _ratio(
        truth.get("dropped", 0), truth.get("sent", 0)
    )

    # Both sides on the CPU clock, which does not count a paced driver's
    # sleep, so the ratio means the same on every workload.
    out["trace.untraced_frame_us"] = untraced_frame_us
    out["trace.overhead_ratio"] = _ratio(traced.raw_frame_us, untraced_frame_us)
    out["trace.unattributed_share"] = tracer.unattributed_share()
    return out
