"""Shared configuration for the microbenchmarks.

``bench_microbench.py`` times the hot loops one at a time (emulator
frames, lockstep round trips, the SYNC codec, checksums).  Everything
collected from this directory is auto-marked ``bench``, and the
repository-wide ``addopts`` excludes that marker — so benchmark runs
must opt back in:

    pytest benchmarks/bench_microbench.py --benchmark-only -m bench

The paper's experiments are ``python -m repro reproduce`` (EXPERIMENTS.md
gives one command per table).  What a session frame costs, end to end and
per layer, is the session benchmark's (``benchmarks/session``); the
host-independent gates are tier-1 tests.  See docs/performance.md §5.
"""

import pytest


def pytest_collection_modifyitems(items):
    """Every test in benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)
