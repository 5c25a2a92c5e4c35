"""Counters and fixed-bucket histograms with O(1) recording.

Design constraints, in order:

1. **Hot-path cost.**  ``Counter.inc`` is one attribute add;
   ``Histogram.observe`` one bisect over a dozen floats plus four stores.  Instruments are plain objects the caller keeps a direct
   reference to — there is *no* name lookup on the recording path.
2. **Zero dependencies.**  Snapshots are plain dicts; the Prometheus text
   exposition is produced by string formatting, not a client library.
3. **Aggregation.**  A process hosting many sessions sums its sites'
   registries into one view (:func:`aggregate_snapshots`): counters and
   histogram buckets add, gauges take the worst (max) value.  A gauge is
   a point-in-time value its owner reads at scrape time into a snapshot's
   ``gauges`` table (:meth:`repro.obs.site.SiteMetrics.snapshot`), so no
   instrument records one.

Quantile summaries of histograms estimate within-bucket position linearly
— the same interpolation rule as :func:`repro.metrics.stats.percentile`,
whose ``q`` validation they share (:func:`validate_quantile`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.stats import validate_quantile


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


#: Default bucket upper bounds for time-valued histograms (seconds): frame
#: times, stalls and pacing adjustments all live in the 0.1 ms – 1 s band.
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.002,
    0.005,
    0.010,
    0.017,
    0.020,
    0.033,
    0.050,
    0.100,
    0.250,
    0.500,
    1.0,
)

#: Buckets for small integer quantities (rollback depths, frame gaps).
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class Histogram:
    """Fixed-bucket histogram: cumulative counts plus sum/min/max.

    ``bounds`` are the inclusive upper bounds of each bucket; one implicit
    overflow bucket (+Inf) is always appended.  Bounds are fixed at
    construction so concurrent sites produce mergeable distributions.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, name: str, bounds: Sequence[float] = TIME_BUCKETS) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation inside the containing bucket, clamped to the
        observed min/max so tiny samples do not report bucket edges the
        data never reached.  Returns 0.0 for an empty histogram.
        """
        validate_quantile(q)
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                lower = self.bounds[index - 1] if index > 0 else min(0.0, self.minimum)
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.maximum
                )
                fraction = 1.0 - (seen - rank) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.counts)
            },
        }


class Registry:
    """One site's (or process's) named instruments.

    ``labels`` identify the owner in snapshots and the Prometheus
    exposition (e.g. ``{"session": "3", "site": "1"}``).  Creation is
    idempotent per name, so wiring code can re-request instruments freely;
    the hot path should keep the returned object instead.
    """

    def __init__(self, labels: Optional[Mapping[str, str]] = None) -> None:
        self.labels: Dict[str, str] = dict(labels or {})
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_new(name)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = TIME_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_new(name)
            instrument = self._histograms[name] = Histogram(name, bounds)
        elif tuple(float(b) for b in bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different bounds"
            )
        return instrument

    def _check_new(self, name: str) -> None:
        for table in (self._counters, self._histograms):
            if name in table:
                raise ValueError(f"{name!r} already registered as another type")

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole registry as one JSON-ready dict."""
        return {
            "labels": dict(self.labels),
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }


def aggregate_snapshots(snapshots: Iterable[dict]) -> dict:
    """Per-process rollup: sum counters and histogram buckets, max gauges."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    merged = 0
    for snap in snapshots:
        merged += 1
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, float("-inf")), value)
        for name, summary in snap.get("histograms", {}).items():
            into = histograms.get(name)
            if into is None:
                histograms[name] = {
                    "count": summary["count"],
                    "sum": summary["sum"],
                    "min": summary["min"],
                    "max": summary["max"],
                    "buckets": dict(summary["buckets"]),
                }
                continue
            into["count"] += summary["count"]
            into["sum"] += summary["sum"]
            if summary["count"]:
                into["min"] = (
                    min(into["min"], summary["min"]) if into["count"] else summary["min"]
                )
                into["max"] = max(into["max"], summary["max"])
            for bound, n in summary["buckets"].items():
                into["buckets"][bound] = into["buckets"].get(bound, 0) + n
    for summary in histograms.values():
        summary["mean"] = summary["sum"] / summary["count"] if summary["count"] else 0.0
    return {
        "labels": {"aggregated_over": str(merged)},
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


# ----------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4 format)
# ----------------------------------------------------------------------
PROM_PREFIX = "repro_"


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(
    snapshots: Iterable[dict], help_text: Optional[Mapping[str, str]] = None
) -> str:
    """Render registry snapshots as Prometheus text exposition.

    Counter names gain the conventional ``_total`` suffix unless they
    already carry one; histograms render the standard ``_bucket`` /
    ``_sum`` / ``_count`` triple with cumulative ``le`` buckets.
    """
    helps = dict(help_text or {})
    by_metric: Dict[Tuple[str, str], List[str]] = {}

    def add(name: str, kind: str, line: str) -> None:
        by_metric.setdefault((name, kind), []).append(line)

    for snap in snapshots:
        labels = snap.get("labels", {})
        for name, value in snap.get("counters", {}).items():
            metric = PROM_PREFIX + (name if name.endswith("_total") else name + "_total")
            add(metric, "counter", f"{metric}{_format_labels(labels)} {value}")
        for name, value in snap.get("gauges", {}).items():
            metric = PROM_PREFIX + name
            add(metric, "gauge", f"{metric}{_format_labels(labels)} {_format_value(value)}")
        for name, summary in snap.get("histograms", {}).items():
            metric = PROM_PREFIX + name
            lines = []
            cumulative = 0
            for bound, count in summary["buckets"].items():
                cumulative += count
                le_labels = dict(labels)
                le_labels["le"] = bound if bound == "+Inf" else repr(float(bound))
                lines.append(f"{metric}_bucket{_format_labels(le_labels)} {cumulative}")
            lines.append(
                f"{metric}_sum{_format_labels(labels)} {_format_value(summary['sum'])}"
            )
            lines.append(f"{metric}_count{_format_labels(labels)} {summary['count']}")
            for line in lines:
                add(metric, "histogram", line)

    out: List[str] = []
    for (metric, kind), lines in sorted(by_metric.items()):
        bare = metric[len(PROM_PREFIX):]
        if bare.endswith("_total"):
            bare = bare[: -len("_total")]
        if bare in helps:
            out.append(f"# HELP {metric} {helps[bare]}")
        out.append(f"# TYPE {metric} {kind}")
        out.extend(lines)
    return "\n".join(out) + "\n"
