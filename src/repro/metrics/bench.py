"""Benchmark measurement helpers and the ``BENCH_<date>.json`` format.

``benchmarks/run_bench.py`` is the entry point; this module holds the
reusable pieces so tests (and future tooling) can measure and compare
without going through the CLI:

* :func:`time_call` — a dependency-free best-of-N timer,
* :func:`measure_game_fps` and friends — the individual measurements,
* :func:`write_bench_json` / :func:`load_bench_history` — persistence of
  one dated result file per run, so regressions are a ``git diff`` away.

The file format is intentionally flat JSON::

    {
      "schema": 1,
      "date": "2026-08-05",
      "host": {"python": "3.11.9", "platform": "linux"},
      "baseline": {...seed numbers, for context...},
      "results": {"game_fps": {...}, "lockstep": {...}, ...}
    }
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional

from repro.emulator.machine import Machine, create_game

SCHEMA_VERSION = 1

#: Throughput of the seed tree (commit eff07c9, pre fast-path overhaul),
#: measured on the reference container with this same harness (same input
#: pattern, fresh machine per sample, best-of-3).  Kept in every result
#: file so a regression check needs no archaeology: the contract is ≥ 2×
#: these numbers for the console games.
SEED_BASELINE = {
    "game_fps": {"pong": 427.0, "tankduel": 741.0, "brawler": 340601.0},
    "save_us": 6.7,
    "load_us": 6.5,
    "checksum_full_us": 20.4,
}

#: Block-translation throughput floor on the reference container.  Full
#: runs there typically measure tankduel ~9900-12400 fps, but the shared
#: host drifts by ±15% on a timescale of minutes, so its floor sits below
#: the worst observed healthy run rather than one noise-band under the
#: mean.  Pong's is 0.85x what region translation measured there (eight
#: full-size readings: median 11,400, best 12,250; per-block translation
#: read 6,050-7,050 side by side), so that gain cannot erode unnoticed.
#: ``run_bench.py`` fails a full run whose block fps drops below
#: :data:`BLOCK_FPS_TOLERANCE` of these — the noisy regression gate for
#: the compiled fast path, next to the exact :data:`BLOCK_ENTRIES_CEILING`.
ROM_FPS_BASELINE = {"pong": 9700.0, "tankduel": 9300.0}
BLOCK_FPS_TOLERANCE = 0.95

#: Compiled-closure entries per frame.  Region translation keeps pong's
#: paddle-column loop (a loop with an if/else in its body) inside one
#: closure: about 6 entries a frame, where per-block dispatch took 180.
BLOCK_ENTRIES_CEILING = {"pong": 30.0}

#: Sync bandwidth on the standard lossy two-site profile (900 frames,
#: send_interval 20 ms, RTT 40 ms, 5% loss, no time server), bytes/sec
#: sent per site.  ``BANDWIDTH_V1_BPS`` is the legacy fixed-width codec's
#: number, frozen when the compact v2 codec replaced it (its ≥3x
#: acceptance bar is measured against it and pinned by
#: ``benchmarks/bench_bandwidth.py``).  ``BANDWIDTH_BASELINE_BPS`` is the
#: send path with one ack per SYNC and the window length in its head byte
#: (wire v4; v2 read 641.5, v3's change-coded windows 615.1).
#: Unlike the fps gates, byte counts are deterministic in the simulator,
#: the same on every host, so the tolerance only absorbs protocol-tuning
#: drift, not noise.
BANDWIDTH_V1_BPS = 2395.5
BANDWIDTH_BASELINE_BPS = 535.1
BANDWIDTH_TOLERANCE = 1.05

#: Frame-latency attribution must be cheap enough to leave on in real
#: sessions: the instrumentation's added cost per frame must stay under
#: this fraction of the whole per-frame session cost (<2% fps).  The
#: fraction is *modeled*, not read off a paired wall-clock ratio: the
#: added cost is microseconds per frame, and this container's throughput
#: jitters by ±10% on second timescales (adjacent identical runs differ
#: more than the whole effect being gated), so a paired-session ratio
#: cannot resolve 2%.  Instead the numerator is measured with tight-loop
#: best-of microbenchmarks — which converge even on a noisy host because
#: thousands of short samples hit the quiet windows — and the denominator
#: is the timeline-off session's per-frame cost, whose ±10% error only
#: scales the fraction, never swamps it.
TIMELINE_OVERHEAD_BUDGET = 0.02

#: A frame must cost the same at minute ten as at second one: CPU per
#: frame over the last quarter of a long session may exceed CPU per frame
#: early in it by at most this factor.  Healthy sessions read 0.95–1.05;
#: the per-frame history rescan this gate was added against read 3.0 at
#: 12,000 frames and 1.8 at the 6,000 of ``--quick``.
SESSION_FLATNESS_CEILING = 1.25

#: Driver wake-ups of both sites over the 3,600-frame seed-66 lossy
#: counter session (:func:`measure_wakeup_stats`) — an exact count, the
#: same on every run and host: 4.79 per session frame.  By the first timer
#: a wake-up fired (``wakeups_by_kind``): frame 7,198, none (datagram only)
#: 4,994, flush 4,800, ping 242, retry 2.  Transition is a step of the
#: pump that opens the gate and the linger bound is one deadline, so no
#: wake-up is a compute or a linger one.  The gate holds pumps per wake-up
#: at exactly 1 and the wake-up count at no more than this.  The count
#: includes no waited-out linger: a slave that trails the master by half a
#: frame has its last input unacknowledged when the master leaves and adds
#: hundreds of wake-ups (5 s of flushes and pings) to this session.
WAKEUPS_BASELINE = 17_236


def time_call(fn: Callable[[], object], repeats: int = 3, inner: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``.

    ``inner`` amortizes the timer overhead for very fast functions: each
    sample times ``inner`` back-to-back calls and divides.  Best-of (not
    mean) because scheduling noise only ever adds time.

    The collector is drained before sampling and paused during the timed
    region: without this, measurements taken late in a long bench run are
    taxed for garbage accumulated by *earlier* measurements (observed as
    a ~15% fps swing on the console ROMs, entirely order-dependent).
    """
    was_enabled = gc.isenabled()
    gc.collect()
    if was_enabled:
        gc.disable()
    try:
        best = float("inf")
        for __ in range(repeats):
            start = time.perf_counter()
            for __ in range(inner):
                fn()
            elapsed = (time.perf_counter() - start) / inner
            if elapsed < best:
                best = elapsed
    finally:
        if was_enabled:
            gc.enable()
    return best


# ----------------------------------------------------------------------
# Individual measurements.
# ----------------------------------------------------------------------
def measure_game_fps(
    name: str,
    frames: int = 600,
    repeats: int = 3,
    interpreter: Optional[str] = None,
) -> float:
    """Emulated frames per second of host time for a registered game.

    Each sample steps a *fresh* machine (so long-running games cannot hit
    a game-over fast path and flatter the number).  ``interpreter``
    forces the console interpreter ("block"/"reference") when the game
    supports it.
    """

    def run() -> None:
        machine = create_game(name)
        if interpreter is not None and hasattr(machine, "interpreter"):
            machine.interpreter = interpreter
        step = machine.step
        for frame in range(frames):
            step((frame * 2654435761) & 0xFFFF)

    return frames / time_call(run, repeats=repeats)


def verify_block_parity(name: str = "pong", frames: int = 60) -> None:
    """Assert block-mode checksums match the reference interpreter.

    The cheap semantic smoke behind every bench number: a compiled-block
    drift would make the throughput figures meaningless, so both the
    ``--quick`` CI job and full runs execute this before measuring.
    Raises ``AssertionError`` on the first divergent frame.
    """
    reference = create_game(name)
    reference.interpreter = "reference"
    block = create_game(name)
    block.interpreter = "block"
    for frame in range(frames):
        word = (frame * 2654435761) & 0xFFFF
        reference.step(word)
        block.step(word)
        if reference.checksum() != block.checksum():
            raise AssertionError(
                f"block interpreter diverged from reference on {name!r} "
                f"at frame {frame}"
            )


def measure_block_stats(name: str, frames: int = 600) -> Dict[str, float]:
    """Block-cache counters after ``frames`` frames of a fresh machine,
    plus ``entries_per_frame``: compiled-closure entries (``block_hits``)
    per frame — an exact count, the same on every host."""
    machine = create_game(name)
    machine.interpreter = "block"
    for frame in range(frames):
        machine.step((frame * 2654435761) & 0xFFFF)
    stats = dict(machine.cpu_stats())
    stats["entries_per_frame"] = round(stats["block_hits"] / frames, 2)
    return stats


def check_block_entries(block_stats: Dict[str, Dict[str, float]]) -> List[str]:
    """The deterministic companion of :func:`check_block_fps`: closure
    entries per frame against :data:`BLOCK_ENTRIES_CEILING`.  The count
    does not depend on host speed or run size, so ``--quick`` gates it."""
    problems = []
    for name, ceiling in BLOCK_ENTRIES_CEILING.items():
        stats = block_stats.get(name)
        if stats is None:
            problems.append(f"{name}: no block_stats measurement")
        elif stats["entries_per_frame"] > ceiling:
            problems.append(
                f"{name}: {stats['entries_per_frame']:.1f} closure entries "
                f"per frame > ceiling {ceiling:.0f}"
            )
    return problems


def check_block_fps(block_fps: Dict[str, float]) -> List[str]:
    """The regression gate: block fps vs the checked-in baseline.

    Returns one message per ROM below ``BLOCK_FPS_TOLERANCE`` × baseline
    (empty list = pass).  Only meaningful for full-size runs; ``--quick``
    numbers are smoke-test sized and skip the gate.
    """
    problems = []
    for name, baseline in ROM_FPS_BASELINE.items():
        fps = block_fps.get(name)
        if fps is None:
            problems.append(f"{name}: no block_fps measurement")
        elif fps < baseline * BLOCK_FPS_TOLERANCE:
            problems.append(
                f"{name}: block fps {fps:.0f} < "
                f"{BLOCK_FPS_TOLERANCE:.2f}x baseline {baseline:.0f}"
            )
    return problems


def measure_snapshot_costs(machine: Machine, repeats: int = 5) -> Dict[str, float]:
    """Microsecond costs of the state-management surface of ``machine``.

    Reported keys: ``save_us``, ``load_us``, ``checksum_cold_us`` (every
    page dirty), ``checksum_warm_us`` (steady state: one frame's writes),
    ``delta_save_us`` / ``delta_apply_us`` (steady-state delta round-trip,
    absent for machines without page tracking), ``delta_bytes``.
    """
    for frame in range(10):
        machine.step(frame & 0xFFFF)
    blob = machine.save_state()
    out: Dict[str, float] = {
        "save_us": time_call(machine.save_state, repeats, inner=20) * 1e6,
        "load_us": time_call(lambda: machine.load_state(blob), repeats, inner=20) * 1e6,
    }
    # Cold checksum: load_state marks everything dirty.
    machine.load_state(blob)
    out["checksum_cold_us"] = time_call(machine.checksum, repeats=1) * 1e6

    def best_after_a_step(fn: Callable[[], object]) -> float:
        """Best-of microseconds for ``fn`` run right after one frame step,
        the step itself outside the timed region."""
        best = float("inf")
        for __ in range(20 * repeats):
            machine.step(0)
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best * 1e6

    # Warm checksum: cost with exactly one frame's dirty pages.
    out["checksum_warm_us"] = best_after_a_step(machine.checksum)

    if machine.dirty_pages_since(machine.state_mark()) is not None:
        twin = create_game(machine.name)
        twin.load_state(machine.save_state())
        marks = {"ours": machine.state_mark(), "twin": twin.state_mark()}

        def delta_roundtrip() -> None:
            pages = set(machine.dirty_pages_since(marks["ours"])) | set(
                twin.dirty_pages_since(marks["twin"])
            )
            twin.apply_delta(machine.save_delta(pages=pages))
            marks["ours"] = machine.state_mark()
            marks["twin"] = twin.state_mark()

        out["delta_roundtrip_us"] = best_after_a_step(delta_roundtrip)
        mark = machine.state_mark()
        machine.step(0)
        out["delta_bytes"] = float(
            len(machine.save_delta(pages=machine.dirty_pages_since(mark)))
        )
        out["full_state_bytes"] = float(len(machine.save_state()))
    return out


def _lossy_counter_session(frames: int, seed: int):
    """The standard lossy two-site profile: two players on the counter
    game (it costs nothing, so the protocol does all the work), 20 ms
    flush interval, RTT 40 ms with 5% loss, and no time server — its
    reports ride outside the sync protocol."""
    from repro.core.config import SyncConfig
    from repro.core.inputs import InputAssignment, PadSource, RandomSource
    from repro.core.multisite import SessionPlan, build_session
    from repro.net.netem import NetemConfig

    plan = SessionPlan(
        config=SyncConfig(send_interval=0.020),
        assignment=InputAssignment.standard(2),
        machines=[create_game("counter") for __ in range(2)],
        sources=[
            PadSource(RandomSource(seed + i), player=i) for i in range(2)
        ],
        max_frames=frames,
        seed=seed,
    )
    return build_session(
        plan, NetemConfig.for_rtt(0.040, loss=0.05), with_time_server=False
    )


def measure_bandwidth_profile(frames: int = 900, seed: int = 7) -> Dict[str, float]:
    """Per-site sync bandwidth on the standard lossy two-site profile.

    The profile behind :data:`BANDWIDTH_BASELINE_BPS`
    (:func:`_lossy_counter_session`).  Byte counts in the simulator are
    deterministic, so one run suffices.
    """
    session = _lossy_counter_session(frames, seed)
    session.run(horizon=600.0)
    duration = frames / session.plan.config.cfps
    stats = session.vms[0].socket.stats
    return {
        "sent_Bps": stats.bytes_sent / duration,
        "recv_Bps": stats.bytes_received / duration,
        "dgrams_per_s": stats.datagrams_sent / duration,
    }


def check_bandwidth(sent_bps: float) -> List[str]:
    """The send-path regression gate: bytes/sec vs the frozen baseline.

    Returns one message if ``sent_bps`` exceeds ``BANDWIDTH_TOLERANCE`` ×
    :data:`BANDWIDTH_BASELINE_BPS` (empty list = pass).  Only meaningful
    for the full-size profile, which ``--quick`` runs too: a shrunken
    session's startup transient would dominate.
    """
    ceiling = BANDWIDTH_BASELINE_BPS * BANDWIDTH_TOLERANCE
    if sent_bps > ceiling:
        return [
            f"bandwidth: {sent_bps:.0f} B/s/site > "
            f"{BANDWIDTH_TOLERANCE:.2f}x baseline {BANDWIDTH_BASELINE_BPS:.0f}"
        ]
    return []


def measure_session_flatness(frames: int = 12_000, seed: int = 7) -> Dict[str, float]:
    """CPU per frame late in one long session over CPU per frame early.

    One :func:`_lossy_counter_session` of ``frames`` frames, read with
    ``time.process_time`` at 121 evenly spaced instants of its own clock.
    The early window is frames 5%–30% of the session (600–3,600 of 12,000:
    past the handshake, inside the paper's run length), the late window
    its last quarter.  Work that reads history without a bound — a scan
    over every earlier frame, a buffer nobody prunes — makes the late
    window dearer and the ratio climbs above 1; a frame that costs what
    its own work costs reads about 1 at any length.

    A window's cost is that of its cheapest slice, best-of like
    :func:`time_call`: this host runs slow for seconds at a time (whole
    windows read ±40%), and noise only ever adds time.
    """
    slices = 120
    session = _lossy_counter_session(frames, seed)
    trace = session.vms[0].runtime.trace
    cfps = session.plan.config.cfps
    marks: List[tuple] = []
    for tick in range(slices + 1):
        session.loop.call_at(
            tick * frames / slices / cfps,
            lambda: marks.append((trace.frames, time.process_time())),
        )
    session.run(horizon=frames / cfps + 60.0)
    slice_us = [
        (cpu - cpu0) / (done - done0) * 1e6
        for (done0, cpu0), (done, cpu) in zip(marks, marks[1:])
    ]
    early = min(slice_us[slices // 20 : 3 * slices // 10])
    late = min(slice_us[3 * slices // 4 :])
    return {
        "frames": frames,
        "early_frame_us": early,
        "late_frame_us": late,
        "session_flatness_ratio": late / early,
    }


def check_session_flatness(ratio: float) -> List[str]:
    """The frame-cost-growth gate: late/early CPU per frame of one session.

    A ratio, so host speed cancels and it holds on ``--quick`` sizes too.
    """
    if ratio > SESSION_FLATNESS_CEILING:
        return [
            f"session flatness: late frames cost {ratio:.2f}x early ones "
            f"(ceiling {SESSION_FLATNESS_CEILING:.2f}x)"
        ]
    return []


def measure_wakeup_stats() -> Dict[str, float]:
    """Exact counts of the simulator driver's plumbing over the session
    :data:`WAKEUPS_BASELINE` was read on: how often a site woke up
    (``DistributedVM._main``), how often the engine pumped, and how many of
    those pumps had nothing to report.  Counts, not times: they repeat
    exactly, so :func:`check_wakeup_stats` can gate them with no tolerance.
    """
    frames = 3_600
    session = _lossy_counter_session(frames, seed=66)
    counts = {"wakeups": 0, "pumps": 0, "idle_pumps": 0}
    by_kind: Dict[str, int] = {}
    fired: List[str] = []

    def count_wakeups(main):
        def counted():
            counts["wakeups"] += 1
            fired.clear()
            result = main()
            kind = fired[0] if fired else "datagram"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            return result

        return counted

    def note_timer(on_timer):
        def noted(kind, *args):
            fired.append(kind)
            return on_timer(kind, *args)

        return noted

    def count_pumps(pump):
        def counted(now, effects):
            counts["pumps"] += 1
            effects = pump(now, effects)
            if not effects:
                counts["idle_pumps"] += 1
            return effects

        return counted

    for vm in session.vms:
        vm._main = count_wakeups(vm._main)
        vm.engine._pump = count_pumps(vm.engine._pump)
        vm.engine._on_timer = note_timer(vm.engine._on_timer)
    session.run(horizon=frames / session.plan.config.cfps + 60.0)
    return {
        "wakeups": counts["wakeups"],
        "wakeups_per_frame": counts["wakeups"] / frames,
        "pumps_per_wakeup": counts["pumps"] / counts["wakeups"],
        "idle_pump_share": counts["idle_pumps"] / counts["pumps"],
        "wakeups_by_kind": dict(sorted(by_kind.items(), key=lambda kv: -kv[1])),
    }


def measure_driver_costs(frames: int = 1_200, seed: int = 192) -> Dict[str, float]:
    """The same pong session in one process, on the simulator and on
    ``AioSite`` over loopback UDP: the median wall-clock µs of one
    ``Machine.step`` and the mean process-time µs of one ``SiteEngine.poll``
    under each driver.  Identical work, so a ratio above 1 is what running
    right after a selector sleep costs on the host."""
    from repro.core.aio import AioSessionSpec, run_sessions, simulator_checksums
    from repro.core.engine import SiteEngine

    spec = AioSessionSpec(game="pong", frames=frames, seed=seed, linger=0.5)
    machine_class = type(create_game("pong"))
    step, poll = machine_class.step, SiteEngine.poll
    steps: List[float] = []
    polls: List[float] = []

    def timed_step(self, word):
        started = time.perf_counter()
        step(self, word)
        steps.append(time.perf_counter() - started)

    def timed_poll(self, *args):
        started = time.process_time()
        effects = poll(self, *args)
        polls.append(time.process_time() - started)
        return effects

    costs: Dict[str, float] = {}
    machine_class.step, SiteEngine.poll = timed_step, timed_poll
    try:
        for driver, run in (
            ("sim", lambda: simulator_checksums(spec)),
            ("aio", lambda: run_sessions([spec])),
        ):
            steps.clear()
            polls.clear()
            run()
            costs[f"{driver}_step_us"] = statistics.median(steps) * 1e6
            costs[f"{driver}_poll_cpu_us"] = statistics.fmean(polls) * 1e6
    finally:
        machine_class.step, SiteEngine.poll = step, poll
    return costs


def check_wakeup_stats(stats: Dict[str, float]) -> List[str]:
    """The plumbing gates: one pump per wake-up, and no more wake-ups than
    :data:`WAKEUPS_BASELINE`."""
    problems = []
    if stats["pumps_per_wakeup"] != 1.0:
        problems.append(
            f"wake-ups: the engine pumps {stats['pumps_per_wakeup']:.3f} times "
            "per driver wake-up (must be exactly 1)"
        )
    if stats["wakeups"] > WAKEUPS_BASELINE:
        problems.append(
            f"wake-ups: {stats['wakeups']} over the session "
            f"({stats['wakeups_per_frame']:.2f}/frame) > baseline {WAKEUPS_BASELINE}"
        )
    return problems


def _timeline_added_us_per_frame() -> Dict[str, float]:
    """Tight-loop cost of everything tracing adds per presented frame.

    Three measured pieces, each a best-of microbenchmark (robust on a
    noisy host, unlike session-scale wall-clock pairs):

    * ``hooks_us`` — one frame's collector hook sequence (capture note,
      stamp ingest, coverage mark, gate open, present/finalize), per
      site;
    * ``stamp_us`` — the wire-annotation delta: encode+decode of a
      stamped SYNC minus the same SYNC unstamped;
    * ``drain_us`` — per-record histogram + SLO scoring cost.  Reported
      for visibility but *not* part of the hot-path sum: analysis is
      deferred to scrape time (``SiteRuntime.drain_timeline``), where a
      realtime session pays it from idle frame-budget headroom.
    """
    from repro.core.messages import Sync, decode
    from repro.obs.timeline import TimelineCollector

    tpf = 1 / 60.0
    loop_frames = 100

    def hooks() -> None:
        collector = TimelineCollector(tpf)
        for frame in range(loop_frames):
            now = frame * tpf
            collector.on_local_capture(frame + 6, now)
            collector.on_stamp(1, frame, now - 0.030, now - 0.035)
            collector.on_remote_frames(1, frame, frame, now + 0.001, now + 0.0015)
            collector.on_gate_open(frame, now + 0.002)
            collector.on_present(frame, now + 0.003)

    hooks_us = time_call(hooks, repeats=7, inner=3) / loop_frames * 1e6

    plain = Sync(0, 1, ack=90, first_frame=90, inputs=[1, 0, 3, 2])
    stamped = Sync(0, 1, ack=90, first_frame=90, inputs=[1, 0, 3, 2])
    stamped.annotate(93_750, 120)
    raw_plain, raw_stamped = plain.encode(), stamped.encode()

    def codec(message: Sync, raw: bytes) -> Callable[[], None]:
        def run() -> None:
            for __ in range(50):
                message.encode()
                decode(raw)

        return run

    plain_us = time_call(codec(plain, raw_plain), repeats=7, inner=3) / 50 * 1e6
    stamped_us = (
        time_call(codec(stamped, raw_stamped), repeats=7, inner=3) / 50 * 1e6
    )
    stamp_us = max(0.0, stamped_us - plain_us)

    from repro.core.config import SyncConfig
    from repro.obs.site import SiteMetrics
    from repro.obs.slo import SloScorer

    metrics = SiteMetrics(0)
    slo = SloScorer(SyncConfig(timeline=True))
    collector = TimelineCollector(tpf)
    for frame in range(loop_frames):
        now = frame * tpf
        collector.on_local_capture(frame + 6, now)
        collector.on_stamp(1, frame, now - 0.030, now - 0.035)
        collector.on_remote_frames(1, frame, frame, now + 0.001, now + 0.0015)
        collector.on_gate_open(frame, now + 0.002)
        collector.on_present(frame, now + 0.003)
    records = list(collector.fresh)

    def drain() -> None:
        for record in records:
            metrics.on_frame_latency(record)
            slo.observe(record)

    drain_us = time_call(drain, repeats=7, inner=3) / len(records) * 1e6
    return {"hooks_us": hooks_us, "stamp_us": stamp_us, "drain_us": drain_us}


def measure_timeline_overhead(
    game: str = "pong", frames: int = 360, seed: int = 7, repeats: int = 2
) -> Dict[str, float]:
    """Tracing overhead as a fraction of one frame's whole session cost.

    The denominator is a two-site simulated session with timeline *off*
    (best-of wall clock: protocol, netem, emulator — everything a frame
    costs).  The numerator is the microbenchmarked hot-path addition:
    both sites' collector hooks plus one stamped-SYNC codec delta per
    flush direction (flushes run at most at frame rate, so one per frame
    per direction is the conservative bound).  ``overhead_fraction`` =
    added/frame; <0.02 means tracing costs the session under 2% fps.
    See :data:`TIMELINE_OVERHEAD_BUDGET` for why this is modeled instead
    of read off a paired on/off wall-clock ratio.  Paired fps numbers are
    still returned for eyeballing, but they carry the host's full noise.
    """
    from repro.core.config import SyncConfig
    from repro.core.inputs import PadSource, RandomSource
    from repro.core.multisite import build_session, two_player_plan
    from repro.net.netem import NetemConfig

    def once(timeline: bool) -> None:
        plan = two_player_plan(
            SyncConfig(timeline=timeline),
            machine_factory=lambda: create_game(game),
            sources=[
                PadSource(RandomSource(seed + i), player=i) for i in range(2)
            ],
            game_id=game,
            max_frames=frames,
            seed=seed,
        )
        session = build_session(plan, NetemConfig.for_rtt(0.040))
        session.run(horizon=600.0)

    best: Dict[bool, float] = {False: float("inf"), True: float("inf")}
    was_enabled = gc.isenabled()
    gc.collect()
    if was_enabled:
        gc.disable()
    try:
        once(True)  # warm every code path outside the timed region
        for __ in range(repeats):
            for timeline in (False, True):
                start = time.perf_counter()
                once(timeline)
                elapsed = time.perf_counter() - start
                if elapsed < best[timeline]:
                    best[timeline] = elapsed
    finally:
        if was_enabled:
            gc.enable()
    frame_us = best[False] / frames * 1e6
    parts = _timeline_added_us_per_frame()
    added_us = 2 * parts["hooks_us"] + 2 * parts["stamp_us"]
    return {
        "fps_off": frames / best[False],
        "fps_on": frames / best[True],
        "frame_us": frame_us,
        "hooks_us": parts["hooks_us"],
        "stamp_us": parts["stamp_us"],
        "drain_us": parts["drain_us"],
        "added_us": added_us,
        "overhead_fraction": added_us / frame_us if frame_us else 1.0,
    }


def check_timeline_overhead(fractions: Dict[str, float]) -> List[str]:
    """The tracing-overhead gate: per-game added-cost fraction vs budget.

    ``fractions`` maps game name to ``overhead_fraction`` from
    :func:`measure_timeline_overhead`; one message per game over
    :data:`TIMELINE_OVERHEAD_BUDGET` (empty list = pass).
    """
    problems = []
    for name, fraction in sorted(fractions.items()):
        if fraction >= TIMELINE_OVERHEAD_BUDGET:
            problems.append(
                f"{name}: tracing adds {fraction:.2%} of a frame's session "
                f"cost (budget {TIMELINE_OVERHEAD_BUDGET:.0%} fps)"
            )
    return problems


def measure_rollback_session(
    game: str = "pong", frames: int = 240, loss: float = 0.05
) -> Dict[str, float]:
    """Run a lossy two-site rollback session; return wall time + stats.

    The interesting outputs are ``snapshot_bytes_copied`` (delta restores)
    against ``snapshot_bytes_full`` (what full savestates would have
    moved) and the replay counts — the cost the paper's §5 argument is
    about.
    """
    from repro.core.inputs import PadSource, RandomSource
    from repro.core.rollback import build_rollback_session
    from repro.net.netem import NetemConfig

    session = build_rollback_session(
        game_factory=lambda: create_game(game),
        sources=[
            PadSource(RandomSource(5, toggle_p=0.08), 0),
            PadSource(RandomSource(6, toggle_p=0.08), 1),
        ],
        netem=NetemConfig(delay=0.030, jitter=0.010, loss=loss),
        frames=frames,
        seed=5,
        speculation_window=60,
    )
    start = time.perf_counter()
    session.run(horizon=600.0)
    wall = time.perf_counter() - start
    stats = session.vms[0].engine.consistency.stats.as_dict()
    stats["wall_seconds"] = wall
    stats["frames"] = frames
    return stats


#: Acceptance floor for the heuristic input predictor: on the
#: tap-structured rollback bench it must mispredict at least this much
#: less than the hold-last-confirmed baseline.  (Measured 0.33–0.39
#: across seeds and 40–120 ms RTT on the reference profile with the
#: tap-length-matched impulse hold; the floor leaves margin for profile
#: drift, not for a predictor regression.)
PREDICTOR_REDUCTION_FLOOR = 0.30


def measure_predictor_comparison(
    game: str = "pong", frames: int = 480, rtt: float = 0.060,
    loss: float = 0.02, seed: int = 13,
) -> Dict[str, object]:
    """Misprediction counts of each predictor on one tap-structured trace.

    Runs the same seeded :class:`~repro.core.inputs.TapSource` session
    once per registered predictor; deterministic in the simulator, so one
    run per predictor suffices.  Output feeds the
    :data:`PREDICTOR_REDUCTION_FLOOR` gate: the heuristic must beat naive
    by ≥30% fewer mispredictions.
    """
    from repro.core.inputs import PadSource, TapSource
    from repro.core.rollback import PREDICTORS, build_rollback_session
    from repro.net.netem import NetemConfig

    out: Dict[str, object] = {}
    for name in sorted(PREDICTORS):
        session = build_rollback_session(
            game_factory=lambda: create_game(game),
            sources=[
                PadSource(TapSource(seed), 0),
                PadSource(TapSource(seed + 1), 1),
            ],
            netem=NetemConfig(delay=rtt / 2, jitter=0.010, loss=loss),
            frames=frames,
            seed=seed,
            predictor=name,
        )
        session.run(horizon=600.0)
        stats = [vm.engine.consistency.stats for vm in session.vms]
        out[name] = {
            "mispredicted_frames": sum(s.mispredicted_frames for s in stats),
            "predicted_frames": sum(s.predicted_frames for s in stats),
            "hit_ratio": round(min(s.predict_hit_ratio for s in stats), 4),
        }
    naive = out["naive"]["mispredicted_frames"]
    ours = out["heuristic"]["mispredicted_frames"]
    out["misprediction_reduction"] = round(
        (1.0 - ours / naive) if naive else 0.0, 4
    )
    return out


def check_predictor_reduction(comparison: Dict[str, object]) -> List[str]:
    """The predictor gate: heuristic ≥30% fewer mispredictions than naive."""
    reduction = comparison.get("misprediction_reduction", 0.0)
    if reduction < PREDICTOR_REDUCTION_FLOOR:
        return [
            f"predictor: heuristic cuts mispredictions only "
            f"{reduction:.0%} vs naive "
            f"(floor {PREDICTOR_REDUCTION_FLOOR:.0%})"
        ]
    return []


def measure_sweep(quick: bool = False, seed: int = 7) -> Dict[str, object]:
    """The adaptive-consistency WAN sweep surface (see `repro sweep`).

    Full runs record the entire (profiles × RTT) grid into the bench
    JSON; ``--quick`` runs the two-point smoke.  Deterministic, so the
    recorded surface is comparable across commits.
    """
    from repro.harness.sweep import quick_sweep, run_sweep, summarize

    points = quick_sweep(seed=seed) if quick else run_sweep(seed=seed)
    return summarize(points)


def check_sweep(sweep: Dict[str, object]) -> List[str]:
    """The adaptive-consistency gate: no regression on the wan-120 rows.

    Every wan-120 point must hold its in-harness assertions (playable
    adaptive frame time, verified checksums, lockstep collapse where
    expected).  Other profiles are recorded for the history but don't
    gate — their loss bursts make them the exploratory part of the grid.
    """
    problems = []
    for point in sweep.get("points", []):
        if point["profile"] != "wan-120" or point["passed"]:
            continue
        detail = "; ".join(point["problems"])
        problems.append(
            f"sweep wan-120 @ {point['rtt_ms']}ms RTT: {detail}"
        )
    return problems


# ----------------------------------------------------------------------
# Persistence.
# ----------------------------------------------------------------------
def bench_filename(date: Optional[str] = None) -> str:
    date = date or time.strftime("%Y-%m-%d")
    return f"BENCH_{date}.json"


def write_bench_json(
    results: Dict[str, object],
    directory: str = ".",
    date: Optional[str] = None,
) -> str:
    """Write one dated result file; returns its path (overwrites same-day).

    Creates ``directory`` if needed — by the time this runs the (possibly
    long) measurement is done, and losing it to a typo'd path would hurt.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, bench_filename(date))
    payload = {
        "schema": SCHEMA_VERSION,
        "date": date or time.strftime("%Y-%m-%d"),
        "host": {
            "python": platform.python_version(),
            "platform": platform.system().lower(),
        },
        "baseline": SEED_BASELINE,
        "results": results,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench_history(directory: str = ".") -> List[Dict[str, object]]:
    """All ``BENCH_*.json`` files in ``directory``, sorted by date."""
    history = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as handle:
                history.append(json.load(handle))
    history.sort(key=lambda payload: str(payload.get("date", "")))
    return history
