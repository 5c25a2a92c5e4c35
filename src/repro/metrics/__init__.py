"""Measurement substrate: statistics, per-site traces, and the time server."""

from repro.metrics.recorder import ConsistencyChecker, ConsistencyError, FrameTrace
from repro.metrics.stats import (
    absolute_average,
    mean,
    mean_abs_deviation,
    percentile,
    summarize,
    validate_quantile,
)
from repro.metrics.timeserver import TimeServer

__all__ = [
    "ConsistencyChecker",
    "ConsistencyError",
    "FrameTrace",
    "TimeServer",
    "absolute_average",
    "mean",
    "mean_abs_deviation",
    "percentile",
    "summarize",
    "validate_quantile",
]
