"""The benchmark harness itself is tier-1 tested (numbers are not).

The real benchmark run is manual (``python benchmarks/run_bench.py``);
these tests only guarantee it cannot rot: the measurement helpers return
sane values at smoke sizes, the JSON file round-trips, and the CLI's
``--quick`` path executes end to end.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.emulator.machine import create_game
from repro.metrics.bench import (
    BANDWIDTH_BASELINE_BPS,
    BLOCK_ENTRIES_CEILING,
    ROM_FPS_BASELINE,
    SEED_BASELINE,
    WAKEUPS_BASELINE,
    bench_filename,
    check_bandwidth,
    check_block_entries,
    check_block_fps,
    check_wakeup_stats,
    load_bench_history,
    measure_bandwidth_profile,
    measure_block_stats,
    measure_driver_costs,
    measure_game_fps,
    measure_snapshot_costs,
    measure_wakeup_stats,
    time_call,
    verify_block_parity,
    write_bench_json,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_time_call_returns_positive_seconds():
    assert 0 < time_call(lambda: sum(range(100)), repeats=2, inner=5) < 1.0


def test_measure_game_fps_smoke():
    fps = measure_game_fps("counter", frames=30, repeats=1)
    assert fps > 0


def test_verify_block_parity_passes():
    verify_block_parity("pong", frames=20)  # must not raise


def test_verify_block_parity_detects_drift(monkeypatch):
    from repro.emulator.cpu import Cpu

    # A block loop that executes nothing is the bluntest semantic drift.
    monkeypatch.setattr(Cpu, "run_frame_blocks", lambda self, budget: 0)
    with pytest.raises(AssertionError, match="diverged"):
        verify_block_parity("pong", frames=5)


def test_measure_block_stats_counts_compiles():
    stats = measure_block_stats("pong", frames=30)
    assert stats["blocks_compiled"] > 0
    assert stats["block_hits"] > 0
    assert stats["entries_per_frame"] == round(stats["block_hits"] / 30, 2)


def test_check_block_entries_gate():
    measured = {"pong": measure_block_stats("pong", frames=30)}
    assert check_block_entries(measured) == []  # the real count passes
    per_block = {"pong": {"entries_per_frame": 180.0}}  # before regions
    assert len(check_block_entries(per_block)) == 1
    assert check_block_entries({}) != []  # a missing measurement fails
    assert set(BLOCK_ENTRIES_CEILING) == {"pong"}


def test_check_block_fps_gate():
    passing = {name: fps for name, fps in ROM_FPS_BASELINE.items()}
    assert check_block_fps(passing) == []
    failing = {name: fps * 0.5 for name, fps in ROM_FPS_BASELINE.items()}
    problems = check_block_fps(failing)
    assert len(problems) == len(ROM_FPS_BASELINE)
    assert check_block_fps({}) != []  # missing measurements also fail


def test_wakeup_stats_are_exact_and_gated():
    stats = measure_wakeup_stats()
    # Counts, not times: the same on every run, so no tolerance.
    assert stats["wakeups"] == WAKEUPS_BASELINE
    assert stats["wakeups_per_frame"] == pytest.approx(4.79, abs=0.005)
    assert stats["pumps_per_wakeup"] == 1.0
    assert 0.0 < stats["idle_pump_share"] < 1.0
    # Each wake-up is named by the first timer it fired (or none): they sum
    # to the total, the send timer folded into the flush is gone, and so
    # are Transition's compute wake-ups and the linger polls.
    by_kind = stats["wakeups_by_kind"]
    assert sum(by_kind.values()) == WAKEUPS_BASELINE
    assert by_kind["flush"] == 4_800 and "send" not in by_kind
    assert "compute" not in by_kind and "linger" not in by_kind
    assert check_wakeup_stats(stats) == []
    # What the driver read before it pumped once per wake-up.
    two_pumps = dict(stats, pumps_per_wakeup=34_729 / 29_736)
    assert len(check_wakeup_stats(two_pumps)) == 1
    chatty = dict(stats, wakeups=WAKEUPS_BASELINE + 1)
    assert len(check_wakeup_stats(chatty)) == 1


def test_bandwidth_profile_is_exact_and_gated():
    # Bytes, not times: the full-length profile reads the baseline to its
    # last recorded digit on every host.
    sent = measure_bandwidth_profile()["sent_Bps"]
    assert round(sent, 1) == BANDWIDTH_BASELINE_BPS
    assert check_bandwidth(sent) == []
    assert len(check_bandwidth(BANDWIDTH_BASELINE_BPS * 1.06)) == 1


def test_measure_driver_costs_smoke():
    costs = measure_driver_costs(frames=30)
    assert set(costs) == {
        "sim_step_us", "sim_poll_cpu_us", "aio_step_us", "aio_poll_cpu_us",
    }
    assert all(value > 0 for value in costs.values())


def test_measure_snapshot_costs_console_reports_delta():
    costs = measure_snapshot_costs(create_game("pong"), repeats=1)
    for key in ("save_us", "load_us", "checksum_cold_us", "checksum_warm_us"):
        assert costs[key] > 0
    # The console tracks pages, so the delta metrics must be present and
    # a steady-state delta must be far smaller than a full savestate.
    assert costs["delta_bytes"] < costs["full_state_bytes"] / 4


def test_measure_snapshot_costs_python_game_skips_delta():
    costs = measure_snapshot_costs(create_game("brawler"), repeats=1)
    assert "delta_roundtrip_us" not in costs


def test_write_and_load_bench_json(tmp_path):
    path = write_bench_json({"game_fps": {"pong": 1.0}}, directory=str(tmp_path))
    assert os.path.basename(path) == bench_filename()
    payload = json.loads(open(path).read())
    assert payload["schema"] == 1
    assert payload["baseline"] == SEED_BASELINE
    assert payload["results"]["game_fps"]["pong"] == 1.0
    history = load_bench_history(str(tmp_path))
    assert len(history) == 1 and history[0] == payload


def test_run_bench_quick_cli(tmp_path):
    """End-to-end smoke: the CLI runs and writes a valid result file."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(REPO_ROOT, "benchmarks", "run_bench.py"),
            "--quick",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RC-16 benchmark" in proc.stdout
    history = load_bench_history(str(tmp_path))
    assert len(history) == 1
    results = history[0]["results"]
    assert results["quick"] is True
    assert set(results["reference_fps"]) == {"pong", "tankduel", "smc"}
    assert set(results["block_fps"]) == {"pong", "tankduel", "smc"}
    assert results["block_stats"]["pong"]["blocks_compiled"] > 0
    assert "entries/frame=" in proc.stdout
    assert results["block_stats"]["pong"]["entries_per_frame"] <= 30
    assert results["rollback_session"]["snapshot_syncs"] >= 0
    assert "pumps_per_wakeup=1.00" in proc.stdout
    assert f"flush={results['wakeup_stats']['wakeups_by_kind']['flush']}" in proc.stdout
    assert "compute=" not in proc.stdout and "linger=" not in proc.stdout
    assert results["wakeup_stats"]["pumps_per_wakeup"] == 1.0
    assert results["wakeup_stats"]["wakeups_per_frame"] == WAKEUPS_BASELINE / 3_600
    assert results["bandwidth"]["sent_Bps"] == BANDWIDTH_BASELINE_BPS
    # Never gated, so no longer measured; the recorded files that carry
    # the number still load next to a result that does not.
    assert "lockstep_roundtrips_per_s" not in results
    assert "round-trips" not in proc.stdout
    recorded = load_bench_history(REPO_ROOT)
    assert any("lockstep_roundtrips_per_s" in r["results"] for r in recorded)
