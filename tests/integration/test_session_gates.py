"""The exact and ratio gates on whole sessions, each in one place.

What one presented frame costs in microseconds is the session benchmark's
job (``benchmarks/session``, the contract in ``BENCHMARK.json``).  These
tests pin what does not depend on the host: byte and wake-up counts,
closure entries and mispredictions are exact in the simulator, and the
flatness gate is a ratio within one session, so host speed cancels.
"""

import time

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, PadSource, RandomSource, TapSource
from repro.core.multisite import SessionPlan, build_session
from repro.core.rollback import build_rollback_session
from repro.emulator.machine import create_game
from repro.net.netem import NetemConfig

from tests.predictors import use_predictor

#: Sync bandwidth of the lossy profile below (900 frames, seed 7), bytes/sec
#: sent per site with wire v4.  Pinned exactly, it also holds the compact
#: codec's claim of under a third of the fixed-width v1 codec's 2,395.5.
BANDWIDTH_BPS = 535.1

#: Driver wake-ups of both sites over the 3,600-frame seed-66 lossy
#: session: 4.79 per session frame.  The count includes no waited-out
#: linger: a slave that trails the master by half a frame has its last
#: input unacknowledged when the master leaves and adds hundreds of
#: wake-ups (5 s of flushes and pings) to this session.
WAKEUPS = 17_236

#: Compiled-closure entries per frame on pong.  Region translation keeps
#: the paddle-column loop (a loop with an if/else in its body) inside one
#: closure: about 6 entries a frame, where per-block dispatch took 180.
PONG_ENTRIES_CEILING = 30.0

#: CPU per frame over the last quarter of a session may exceed CPU per
#: frame early in it by at most this factor.  Healthy sessions read
#: 0.95–1.05; the per-frame history rescan this gate was added against
#: read 3.0 at 12,000 frames and 1.8 at 6,000.
SESSION_FLATNESS_CEILING = 1.25

#: On the tap-structured rollback session the heuristic input predictor
#: must mispredict at least this much less than hold-last-confirmed.
#: (Measured 0.33–0.41 across seeds and 40–120 ms RTT with the
#: tap-length-matched impulse hold; the floor leaves margin for profile
#: drift, not for a predictor regression.)
PREDICTOR_REDUCTION_FLOOR = 0.30


def lossy_counter_session(frames, seed):
    """The standard lossy two-site profile: two players on the counter
    game (it costs nothing, so the protocol does all the work), 20 ms
    flush interval, RTT 40 ms with 5% loss, and no time server — its
    reports ride outside the sync protocol."""
    plan = SessionPlan(
        config=SyncConfig(send_interval=0.020),
        assignment=InputAssignment.standard(2),
        machines=[create_game("counter") for __ in range(2)],
        sources=[PadSource(RandomSource(seed + i), player=i) for i in range(2)],
        max_frames=frames,
        seed=seed,
    )
    return build_session(
        plan, NetemConfig.for_rtt(0.040, loss=0.05), with_time_server=False
    )


def test_bandwidth_is_exact():
    # Bytes, not times: the profile reads its baseline to the last
    # recorded digit on every host.
    frames = 900
    session = lossy_counter_session(frames, seed=7)
    session.run(horizon=600.0)
    duration = frames / session.plan.config.cfps
    sent = session.vms[0].socket.stats.bytes_sent / duration
    assert round(sent, 1) == BANDWIDTH_BPS


def test_one_pump_per_wakeup_and_the_wakeup_count_is_exact():
    """Counts, not times: they repeat exactly, so no tolerance.  Each
    wake-up is named by the first timer it fired (``datagram`` when none),
    so a moved count names its kind."""
    frames = 3_600
    session = lossy_counter_session(frames, seed=66)
    counts = {"wakeups": 0, "pumps": 0}
    by_kind = {}
    fired = []

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
            return pump(now, effects)

        return counted

    for vm in session.vms:
        vm._main = count_wakeups(vm._main)
        vm.engine._pump = count_pumps(vm.engine._pump)
        vm.engine._on_timer = note_timer(vm.engine._on_timer)
    session.run(horizon=frames / session.plan.config.cfps + 60.0)

    assert counts["wakeups"] == WAKEUPS
    assert counts["pumps"] == counts["wakeups"]
    # Transition is a step of the pump that opens the gate and the linger
    # bound is one deadline, so no wake-up is a compute or a linger one;
    # the send timer is folded into the flush.
    assert by_kind == {
        "frame": 7_198, "datagram": 4_994, "flush": 4_800, "ping": 242,
        "retry": 2,
    }


def test_pong_stays_inside_its_compiled_closures():
    frames = 600
    machine = create_game("pong")
    for frame in range(frames):
        machine.step((frame * 2654435761) & 0xFFFF)
    entries = machine.cpu_stats()["block_hits"] / frames
    assert entries <= PONG_ENTRIES_CEILING, f"{entries:.2f} entries per frame"


def session_flatness(frames, seed=7):
    """CPU per frame late in one lossy session over CPU per frame early.

    The session is read with ``time.process_time`` at 121 evenly spaced
    instants of its own clock.  The early window is frames 5%–30% of the
    session (past the handshake), the late window its last quarter; each
    costs what its cheapest slice costs, because this host runs slow for
    seconds at a time and noise only ever adds time.  Work that reads
    history without a bound makes the late window dearer.
    """
    slices = 120
    session = lossy_counter_session(frames, seed)
    trace = session.vms[0].runtime.trace
    cfps = session.plan.config.cfps
    marks = []
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
    return late / early


def test_a_late_frame_costs_what_an_early_one_does():
    # Growth with session length repeats; a host that ran slow through one
    # window (single sessions have read 0.8–1.3) does not, so a reading
    # above the ceiling is taken again, twice at most, and the lowest kept.
    readings = []
    for __ in range(3):
        readings.append(session_flatness(6_000))
        if readings[-1] <= SESSION_FLATNESS_CEILING:
            break
    assert min(readings) <= SESSION_FLATNESS_CEILING, readings


def test_heuristic_predictor_beats_naive():
    """The floor behind ``GAME_IMPULSE_HOLD``: one seeded
    :class:`TapSource` session per predictor, deterministic in the
    simulator.  The naive hold-last-confirmed reference replaces each
    part's own predictor before the run."""
    seed = 13
    mispredicted = {}
    for predictor in ("naive", "heuristic"):
        session = build_rollback_session(
            game_factory=lambda: create_game("pong"),
            sources=[PadSource(TapSource(seed), 0), PadSource(TapSource(seed + 1), 1)],
            netem=NetemConfig(delay=0.030, jitter=0.010, loss=0.02),
            frames=480,
            seed=seed,
        )
        use_predictor(session, predictor)
        session.run(horizon=600.0)
        mispredicted[predictor] = sum(
            vm.engine.consistency.stats.mispredicted_frames for vm in session.vms
        )
    reduction = 1.0 - mispredicted["heuristic"] / mispredicted["naive"]
    assert reduction >= PREDICTOR_REDUCTION_FLOOR, mispredicted
