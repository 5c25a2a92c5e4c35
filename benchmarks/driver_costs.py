#!/usr/bin/env python
"""What the same work costs under each driver (docs/performance.md §8).

Usage (from the repository root, ~25 s)::

    PYTHONPATH=src python benchmarks/driver_costs.py

Prints the median wall-clock µs of one ``Machine.step`` and the mean
process-time µs of one ``SiteEngine.poll``, on the simulator and on
``AioSite`` over loopback UDP.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from repro.emulator.machine import create_game


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


if __name__ == "__main__":
    for name, value in measure_driver_costs().items():
        print(f"{name:16s} {value:8.1f}")
