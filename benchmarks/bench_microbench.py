"""Microbenchmarks: throughput of the substrate components.

These are conventional pytest-benchmark timings (many rounds) for the
pieces whose speed bounds experiment turnaround: the RC-16 console, the
pure-Python games, the lockstep state machine and the wire codec.  What a
whole session frame costs, layer by layer, is the session benchmark's
job (``benchmarks/session``); the host-independent session gates are
tier-1 tests (``tests/integration/test_session_gates.py``).
"""

import gc
import time

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment
from repro.core.lockstep import LockstepSync
from repro.core.messages import Ping, Sync, decode, decode_all, pack_batch
from repro.emulator.machine import create_game


def test_console_frame_throughput(benchmark):
    """RC-16 Pong: emulated frames per second of host time."""
    console = create_game("pong")

    def run_frames():
        for frame in range(60):
            console.step(frame & 0x0303)

    benchmark(run_frames)


def test_brawler_frame_throughput(benchmark):
    game = create_game("brawler")

    def run_frames():
        for frame in range(600):
            game.step((frame * 2654435761) & 0xFFFF)

    benchmark(run_frames)


def test_shooter_frame_throughput(benchmark):
    game = create_game("shooter")

    def run_frames():
        for frame in range(600):
            game.step((frame * 2654435761) & 0xFFFF)

    benchmark(run_frames)


def test_lockstep_roundtrip_throughput(benchmark):
    """Buffer + build + receive + deliver cycles per second."""
    config = SyncConfig()
    assignment = InputAssignment.standard(2)

    def run_protocol():
        a = LockstepSync(config, 0, assignment, 1)
        b = LockstepSync(config, 1, assignment, 1)
        for frame in range(300):
            a.buffer_local_input(frame, frame & 0xFF)
            b.buffer_local_input(frame, (frame << 8) & 0xFF00)
            for sender, receiver in ((a, b), (b, a)):
                message = sender.build_sync_for(receiver.site_no, force=True)
                if message is not None:
                    receiver.on_sync(message, frame / 60)
            a.deliver()
            b.deliver()

    benchmark(run_protocol)


def test_sync_codec_decode_throughput(benchmark):
    message = Sync(0, 1, ack=90, first_frame=90, inputs=list(range(12)))
    raw = message.encode()

    def codec():
        for __ in range(100):
            decode(raw)

    benchmark(codec)


def test_sync_codec_encode_throughput(benchmark):
    """Encode from scratch (mask derivation, packing, change coding)."""

    def codec():
        for __ in range(100):
            Sync(
                0, 1, ack=90, first_frame=90, inputs=list(range(12))
            ).encode()

    benchmark(codec)


def test_batch_assembly_throughput(benchmark):
    """One flush tick's coalescing: SYNC + PONG into a BATCH, then decode."""
    sync = Sync(0, 1, ack=90, first_frame=90, inputs=list(range(8)))
    ping = Ping(0, 1, seq=7, timestamp_us=123_456)
    members = [
        (Sync.TYPE_ID, sync._encode_body()),
        (Ping.TYPE_ID, ping._encode_body()),
    ]

    def assemble():
        for __ in range(100):
            decode_all(pack_batch(0, 1, members))

    benchmark(assemble)


#: The same SYNC in the fixed-width v1 layout (10-byte header, 4-byte
#: ack and input words), frozen when that codec was deleted.
SYNC_V1_BYTES = 62


def test_sync_is_compact(benchmark):
    """The codec's size claim, pinned where the timings live: a two-site
    8-frame SYNC must encode to under half its v1 size, even when every
    cell changes."""
    message = Sync(
        0, 1, ack=95, first_frame=96, inputs=[1, 0, 3, 2, 1, 0, 1, 3]
    )

    benchmark(lambda: message.encode())
    size = len(message.encode())
    assert size < SYNC_V1_BYTES / 2, (
        f"SYNC is {size} B vs v1's {SYNC_V1_BYTES} B — lost the 2x claim"
    )


def test_console_checksum_throughput(benchmark):
    """Cold checksum (every chunk dirty) on pong: the ISSUE-6 budget is
    50 µs — an order of magnitude under the pre-chunking ~200 µs — so a
    digest regression fails loudly rather than silently eroding the
    "frame time is negligible next to network latency" argument."""
    console = create_game("pong")
    for frame in range(10):
        console.step(frame)
    blob = console.save_state()

    def cold_checksum():
        console.load_state(blob)  # marks every page dirty
        console.checksum()

    benchmark(cold_checksum)
    # The gate times the digest alone, load_state outside the timed
    # region: best of 50 samples with the collector paused.
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for __ in range(50):
            console.load_state(blob)
            started = time.perf_counter()
            console.checksum()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    cold_us = best * 1e6
    assert cold_us < 50.0, f"cold checksum took {cold_us:.1f} us (budget 50)"


def test_timeline_collector_throughput(benchmark):
    """Frame-latency attribution hot path: one capture note, stamp,
    coverage mark, gate-open and present per frame.  This is everything
    the engine adds per frame when FEATURE_TIMELINE is on (histogram/SLO
    analysis is deferred to scrape time), so it must be microseconds —
    the session benchmark's ledger shows what it costs a session frame
    as ``obs.self_us``."""
    from repro.obs.timeline import TimelineCollector

    tpf = 1 / 60

    def attribute_frames():
        collector = TimelineCollector(tpf)
        for frame in range(300):
            now = frame * tpf
            collector.on_local_capture(frame + 6, now)
            collector.on_stamp(1, frame, now - 0.030, now - 0.035)
            collector.on_remote_frames(1, frame, frame, now + 0.001, now + 0.0015)
            collector.on_gate_open(frame, now + 0.002)
            collector.on_present(frame, now + 0.003)
        collector.fresh.clear()

    benchmark(attribute_frames)


def test_console_savestate_throughput(benchmark):
    console = create_game("pong")
    for frame in range(10):
        console.step(frame)

    def save_load():
        blob = console.save_state()
        console.load_state(blob)

    benchmark(save_load)
