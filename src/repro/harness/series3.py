"""Experiment Series 3 — behaviour under packet loss (journal extension).

The conference paper's §6 defers "how the system performs in presence of
packet losses" to the journal version.  The mechanism is already in
Algorithm 2 — unacknowledged inputs are re-sent on every flush, so one lost
datagram costs at most one flush interval (~20 ms) once the local-lag
budget is exhausted.  This series quantifies that: fixed RTT, loss swept
from 0 to 20 %, measuring frame time, smoothness and synchrony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.harness.experiment import ExperimentResult, run_point

DEFAULT_LOSS_SWEEP = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20]


@dataclass(frozen=True)
class Series3Row:
    """One loss-sweep data point."""

    loss: float
    rtt: float
    frame_time_mean: float
    frame_time_mad: float
    synchrony: float
    retransmitted_inputs: int
    duplicate_inputs: int
    frames_verified: int

    @classmethod
    def from_result(cls, result: ExperimentResult, loss: float) -> "Series3Row":
        stats = result.lockstep_stats.get(0, {})
        return cls(
            loss=loss,
            rtt=result.rtt,
            frame_time_mean=result.frame_time_mean[0],
            frame_time_mad=result.frame_time_mad[0],
            synchrony=result.synchrony,
            retransmitted_inputs=stats.get("inputs_retransmitted", 0),
            duplicate_inputs=stats.get("duplicate_inputs_received", 0),
            frames_verified=result.frames_verified,
        )


def run_series3(
    losses: Iterable[float] = DEFAULT_LOSS_SWEEP, rtt: float = 0.040, frames: int = 1200
) -> List[Series3Row]:
    """Sweep packet loss at a fixed (comfortable) RTT."""
    return [
        Series3Row.from_result(run_point(rtt, frames=frames, loss=loss), loss)
        for loss in losses
    ]
