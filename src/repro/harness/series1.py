"""Experiment Series 1 — Figure 1: frame rates and smoothness vs RTT.

§4.1.1: sweep RTT from 0 to 400 ms (10 ms steps to 200, 50 ms steps after),
record 3600 frames per point, compute each site's average frame time and
the mean absolute deviation of the frame times.  A row carries both sites:
site 0 (the master, the reference speed) is what the paper's claims below
are checked against; site 1 (the slave) follows it through Algorithm 4 and
is reported next to it.

Paper findings the reproduction must show:

* RTT 0–140 ms → average frame time ≈ 17 ms (60 FPS);
* RTT 0–90 ms → deviation ≈ 0; 100–130 ms → deviation < 5 ms;
* at ≈ 140 ms the deviation jumps (threshold), 150 ms is an inflection;
* past the threshold frame time grows with RTT (e.g. ≈ 20 ms / 50 FPS at
  160 ms) and the deviation settles again.

§4.2 derives that threshold as ``2 × (local lag − synchrony deviation −
send batching − thread slice)``; :func:`run_threshold` finds it with each
budget term removed in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.config import SyncConfig
from repro.harness.experiment import (
    PAPER_FRAMES,
    REDUCED_RTT_SWEEP,
    ExperimentResult,
    run_point,
)

#: The RTTs :func:`run_threshold` probes, in order, for the deviation jump.
PROBE_RTTS = [r / 1000 for r in range(120, 261, 10)]

#: The §4.2 budget: the paper's profile, then each term removed or widened.
BUDGET_VARIANTS = (
    ("paper profile (batch 20ms + slice 5ms + timer 10ms)", {}),
    ("no timer granularity", {"timer_granularity": 0.0}),
    ("no thread slice", {"config": SyncConfig(slice_delay=0.0)}),
    ("tight batching (2ms flush)", {"config": SyncConfig(send_interval=0.002)}),
    ("longer lag (BufFrame 8 ≈ 133ms)", {"config": SyncConfig(buf_frame=8)}),
)


@dataclass(frozen=True)
class Series1Row:
    """One Figure-1 data point."""

    rtt: float
    frame_time_mean: float  # site 0 (master), seconds
    frame_time_mad: float  # site 0, seconds
    fps: float
    frames_verified: int
    slave_frame_time_mean: float  # site 1, seconds
    slave_frame_time_mad: float  # site 1, seconds

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "Series1Row":
        return cls(
            rtt=result.rtt,
            frame_time_mean=result.frame_time_mean[0],
            frame_time_mad=result.frame_time_mad[0],
            fps=result.fps[0],
            frames_verified=result.frames_verified,
            slave_frame_time_mean=result.frame_time_mean[1],
            slave_frame_time_mad=result.frame_time_mad[1],
        )


def run_series1(
    rtts: Iterable[float] = REDUCED_RTT_SWEEP, frames: int = PAPER_FRAMES
) -> List[Series1Row]:
    """Run the Figure-1 sweep; returns one row per RTT value."""
    return [Series1Row.from_result(run_point(rtt, frames=frames)) for rtt in rtts]


def find_threshold(rows: Iterable[Series1Row], mad_jump: float = 0.008) -> Optional[float]:
    """First RTT whose smoothness deviation exceeds ``mad_jump`` seconds.

    The paper identifies the threshold as the RTT where the average
    deviation "suddenly jumps to 11ms and over" — 8 ms is a conservative
    detection level for the same jump.  ``rows`` is read in order and no
    further than the jump, so a generator of runs stops there.
    """
    for row in rows:
        if row.frame_time_mad > mad_jump:
            return row.rtt
    return None


@dataclass(frozen=True)
class ThresholdRow:
    """One §4.2 budget variant and the threshold it measures."""

    configuration: str
    threshold_rtt: Optional[float]  # seconds; None: no jump up to PROBE_RTTS[-1]


def run_threshold(frames: int = 900) -> List[ThresholdRow]:
    """The Figure-1 threshold under each of :data:`BUDGET_VARIANTS`."""
    return [
        ThresholdRow(
            name,
            find_threshold(
                Series1Row.from_result(run_point(rtt, frames=frames, **overrides))
                for rtt in PROBE_RTTS
            ),
        )
        for name, overrides in BUDGET_VARIANTS
    ]
