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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.config import SyncConfig
from repro.harness.experiment import (
    PAPER_FRAMES,
    PAPER_RTT_SWEEP,
    ExperimentResult,
    run_point,
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
    rtts: Optional[Iterable[float]] = None,
    frames: int = PAPER_FRAMES,
    config: Optional[SyncConfig] = None,
    game: str = "counter",
    seed: int = 7,
) -> List[Series1Row]:
    """Run the full Figure-1 sweep; returns one row per RTT value."""
    rtts = list(rtts) if rtts is not None else list(PAPER_RTT_SWEEP)
    rows = []
    for rtt in rtts:
        result = run_point(rtt, frames=frames, config=config, game=game, seed=seed)
        rows.append(Series1Row.from_result(result))
    return rows


def find_threshold(rows: List[Series1Row], mad_jump: float = 0.008) -> Optional[float]:
    """First RTT whose smoothness deviation exceeds ``mad_jump`` seconds.

    The paper identifies the threshold as the RTT where the average
    deviation "suddenly jumps to 11ms and over" — 8 ms is a conservative
    detection level for the same jump.
    """
    for row in rows:
        if row.frame_time_mad > mad_jump:
            return row.rtt
    return None
