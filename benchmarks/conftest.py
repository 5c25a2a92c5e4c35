"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's evaluation artifacts and
prints the underlying table (run with ``-s`` to see it, or check
``benchmark.extra_info``).  Two environment knobs control fidelity:

* ``REPRO_BENCH_FRAMES`` — frames per experiment (default 600; the paper
  records 3600).
* ``REPRO_BENCH_FULL=1`` — run the paper's complete RTT sweep
  (25 points) instead of the reduced 9-point sweep.

Everything collected from this directory is auto-marked ``bench``, and
the repository-wide ``addopts`` excludes that marker — so benchmark runs
must opt back in with ``-m bench``.  A full-fidelity Figure 1 + Figure 2
run:

    REPRO_BENCH_FULL=1 REPRO_BENCH_FRAMES=3600 \
        pytest benchmarks/bench_figure1.py benchmarks/bench_figure2.py \
        --benchmark-only -m bench -s

What a session frame costs, end to end and per layer, is the session
benchmark's (``benchmarks/session``); the host-independent gates are
tier-1 tests.  See docs/performance.md §5.
"""

import os

import pytest

from repro.harness.experiment import PAPER_RTT_SWEEP


def pytest_collection_modifyitems(items):
    """Every test in benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


def bench_frames() -> int:
    return int(os.environ.get("REPRO_BENCH_FRAMES", "600"))


def bench_rtts() -> list:
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return list(PAPER_RTT_SWEEP)
    return [0.0, 0.040, 0.080, 0.100, 0.120, 0.140, 0.160, 0.200, 0.300]


@pytest.fixture
def frames() -> int:
    return bench_frames()


@pytest.fixture
def rtts() -> list:
    return bench_rtts()
