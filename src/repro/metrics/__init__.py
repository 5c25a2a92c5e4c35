"""Measurement substrate: statistics, per-site traces, and the time server."""

from repro.metrics.bench import (
    SEED_BASELINE,
    load_bench_history,
    measure_game_fps,
    measure_rollback_session,
    measure_snapshot_costs,
    time_call,
    write_bench_json,
)
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
    "SEED_BASELINE",
    "TimeServer",
    "absolute_average",
    "load_bench_history",
    "mean",
    "mean_abs_deviation",
    "measure_game_fps",
    "measure_rollback_session",
    "measure_snapshot_costs",
    "percentile",
    "summarize",
    "time_call",
    "validate_quantile",
    "write_bench_json",
]
