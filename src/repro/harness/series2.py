"""Experiment Series 2 — Figure 2: synchrony between two sites vs RTT.

§4.1.2: same sweep as Series 1; every site reports each frame-begin to the
time server, and the metric is the absolute average of the per-frame time
difference between the two sites.

Paper findings: below 130 ms RTT the average absolute difference stays
under 10 ms; above 140 ms it rises quickly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.harness.experiment import (
    PAPER_FRAMES,
    REDUCED_RTT_SWEEP,
    ExperimentResult,
    run_point,
)


@dataclass(frozen=True)
class Series2Row:
    """One Figure-2 data point."""

    rtt: float
    synchrony: float  # absolute average cross-site difference, seconds
    frames_verified: int

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "Series2Row":
        return cls(
            rtt=result.rtt,
            synchrony=result.synchrony,
            frames_verified=result.frames_verified,
        )


def run_series2(
    rtts: Iterable[float] = REDUCED_RTT_SWEEP, frames: int = PAPER_FRAMES
) -> List[Series2Row]:
    """Run the Figure-2 sweep; returns one row per RTT value."""
    return [Series2Row.from_result(run_point(rtt, frames=frames)) for rtt in rtts]
