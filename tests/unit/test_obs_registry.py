"""Unit: counters/histograms, aggregation, and the text exposition."""

import math

import pytest

from repro.metrics.stats import percentile, validate_quantile
from repro.obs.registry import (
    DEPTH_BUCKETS,
    Counter,
    Histogram,
    Registry,
    aggregate_snapshots,
    to_prometheus,
)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("frames")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_histogram_counts_sum_and_extremes(self):
        hist = Histogram("depth", bounds=DEPTH_BUCKETS)
        for value in (0, 1, 1, 3, 200):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == 205
        assert hist.minimum == 0
        assert hist.maximum == 200
        # The overflow bucket caught the out-of-range sample.
        assert hist.counts[-1] == 1
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["buckets"]["+Inf"] == 1

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(1.0, 0.5))

    def test_quantile_interpolates_within_observed_range(self):
        hist = Histogram("t", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0) == pytest.approx(0.5)
        assert hist.quantile(100) == pytest.approx(3.0)
        assert 0.5 <= hist.quantile(50) <= 3.0

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("t").quantile(95) == 0.0


class TestQuantileValidation:
    """Satellite (a): out-of-range q raises a clear error everywhere."""

    @pytest.mark.parametrize("q", [-1, 100.5, 1e9, float("nan"), "fifty", None])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError, match="q must be"):
            validate_quantile(q)

    @pytest.mark.parametrize("q", [-0.001, 101])
    def test_percentile_rejects_out_of_range(self, q):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0, 2.0, 3.0], q)

    @pytest.mark.parametrize("q", [-5, 200])
    def test_histogram_quantile_shares_the_validation(self, q):
        hist = Histogram("t")
        hist.observe(0.01)
        with pytest.raises(ValueError, match="q must be"):
            hist.quantile(q)

    def test_endpoints_still_accepted(self):
        assert validate_quantile(0) == 0.0
        assert validate_quantile(100) == 100.0
        assert percentile([1.0, 2.0], 0) == 1.0
        assert percentile([1.0, 2.0], 100) == 2.0


class TestRegistry:
    def test_creation_is_idempotent(self):
        registry = Registry({"site": "0"})
        assert registry.counter("frames") is registry.counter("frames")
        assert registry.histogram("t") is registry.histogram("t")

    def test_cross_type_name_collision_rejected(self):
        registry = Registry()
        registry.counter("frames")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("frames")

    def test_histogram_bounds_must_match_on_reuse(self):
        registry = Registry()
        registry.histogram("t", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="different bounds"):
            registry.histogram("t", bounds=(1.0, 3.0))

    def test_snapshot_shape(self):
        registry = Registry({"site": "1", "session": "2"})
        registry.counter("frames").inc(3)
        registry.histogram("t").observe(0.016)
        snap = registry.snapshot()
        assert snap["labels"] == {"site": "1", "session": "2"}
        assert snap["counters"] == {"frames": 3}
        # Gauges are read at scrape time by the snapshot's owner.
        assert snap["gauges"] == {}
        assert snap["histograms"]["t"]["count"] == 1


class TestAggregation:
    def make_snap(self, site, frames, rtt, observations):
        registry = Registry({"site": str(site)})
        registry.counter("frames").inc(frames)
        hist = registry.histogram("t")
        for value in observations:
            hist.observe(value)
        snap = registry.snapshot()
        snap["gauges"]["rtt"] = rtt
        return snap

    def test_counters_sum_and_gauges_take_worst(self):
        merged = aggregate_snapshots(
            [
                self.make_snap(0, 10, 0.02, [0.01]),
                self.make_snap(1, 7, 0.05, [0.02, 0.03]),
            ]
        )
        assert merged["counters"]["frames"] == 17
        assert merged["gauges"]["rtt"] == 0.05
        assert merged["histograms"]["t"]["count"] == 3
        assert merged["histograms"]["t"]["sum"] == pytest.approx(0.06)
        assert merged["labels"] == {"aggregated_over": "2"}


class TestPrometheusExposition:
    def test_counter_gains_total_suffix_and_labels(self):
        registry = Registry({"site": "0", "session": "1"})
        registry.counter("frames").inc(42)
        text = to_prometheus([registry.snapshot()])
        assert '# TYPE repro_frames_total counter' in text
        assert 'repro_frames_total{session="1",site="0"} 42' in text

    def test_histogram_renders_cumulative_le_buckets(self):
        registry = Registry({"site": "0"})
        hist = registry.histogram("t", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            hist.observe(value)
        text = to_prometheus([registry.snapshot()])
        assert 'repro_t_bucket{le="1.0",site="0"} 1' in text
        assert 'repro_t_bucket{le="2.0",site="0"} 2' in text
        assert 'repro_t_bucket{le="+Inf",site="0"} 3' in text
        assert 'repro_t_count{site="0"} 3' in text
        assert 'repro_t_sum{site="0"} 7.0' in text

    def test_help_text_rides_along(self):
        registry = Registry()
        registry.counter("frames").inc()
        text = to_prometheus(
            [registry.snapshot()], help_text={"frames": "Frames presented"}
        )
        assert "# HELP repro_frames_total Frames presented" in text

    def test_infinite_gauges_render_prometheus_style(self):
        snap = Registry().snapshot()
        snap["gauges"]["x"] = math.inf
        assert "repro_x +Inf" in to_prometheus([snap])
