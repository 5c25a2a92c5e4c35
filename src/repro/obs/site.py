"""Per-``SiteRuntime`` instrument bundle, built from the metric catalog.

Every row of :data:`~repro.obs.catalog.METRIC_CATALOG` is one metric, and
:class:`SiteMetrics` splits them by whether the row has a ``read``:

* **Recorded instruments** (no ``read``) — one attribute per row, named
  after it, updated by :class:`~repro.core.engine.SiteEngine` as events
  flow: one counter increment per datagram/frame, one histogram
  ``observe`` per frame for frame time / sync stall /
  ``SyncAdjustTimeDelta``.
* **Read rows** — a total the sync layer (``LockstepStats``,
  ``PacerStats``, ``RttEstimator``, …) or the event trace already keeps is
  read by :meth:`snapshot`, never copied, so the Algorithm 2/3/4 hot paths
  are not touched at all and a count cannot disagree with its record.

Rollback and state transfer record through the dedicated helpers
(:meth:`on_rollback`, :meth:`on_state_served`, :meth:`on_state_acquired`);
those paths fire at most a few times per second, so direct recording is
fine there.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.catalog import METRIC_CATALOG
from repro.obs.registry import DEPTH_BUCKETS, Registry, TIME_BUCKETS
from repro.obs.timeline import _SPANS

#: The rows :meth:`SiteMetrics.snapshot` reads: (name, kind, read).
_READ_ROWS = tuple(
    (name, kind, read)
    for name, (kind, _help, read) in METRIC_CATALOG.items()
    if read is not None
)


class SiteMetrics:
    """All of one site's instruments, pre-bound for O(1) recording."""

    def __init__(self, site_no: int, session_id: int = 1) -> None:
        self.registry = r = Registry(
            labels={"site": str(site_no), "session": str(session_id)}
        )
        for name, (kind, _help, read) in METRIC_CATALOG.items():
            if read is not None:
                continue
            if kind == "histogram":
                # The unit suffix picks the buckets: frames are depths.
                bounds = DEPTH_BUCKETS if name.endswith("_frames") else TIME_BUCKETS
                setattr(self, name, r.histogram(name, bounds))
            else:
                setattr(self, name, getattr(r, kind)(name))
        # Point-index → histogram table so the per-frame hot path indexes
        # the record's points directly instead of building a stage dict.
        # The histograms exist whether or not the session negotiated
        # FEATURE_TIMELINE; they only ever fill when it did.
        self._latency_spans = tuple(
            (start, end, getattr(self, f"frame_latency_{stage}_seconds"))
            for stage, start, end in _SPANS
        )
        self._last_begin: Optional[float] = None

    # ------------------------------------------------------------------
    # Hot-path helpers the engine calls
    # ------------------------------------------------------------------
    def on_begin_frame(self, now: float) -> None:
        last = self._last_begin
        if last is not None:
            self.frame_time_seconds.observe(now - last)
        self._last_begin = now

    def on_commit(self, stall: float, sync_adjust: float) -> None:
        self.sync_stall_seconds.observe(stall)
        if sync_adjust:
            self.sync_adjust_seconds.observe(abs(sync_adjust))

    def on_frame_latency(self, record) -> None:
        """Observe one finalized :class:`FrameTimeline` into the histograms.

        Partial records contribute whatever spans they do know; only fully
        attributed frames feed the end-to-end series, so ``_total``'s
        ``_count`` doubles as the complete-frame counter.
        """
        points = record.points
        for start, end, histogram in self._latency_spans:
            a = points[start]
            if a is None:
                continue
            b = points[end]
            if b is None:
                continue
            histogram.observe(b - a if b > a else 0.0)
        a = points[0]
        b = points[6]
        if a is not None and b is not None:
            self.frame_latency_total_seconds.observe(b - a if b > a else 0.0)

    # ------------------------------------------------------------------
    # Rare-path helpers (the ``rollback`` record counts the rollback)
    # ------------------------------------------------------------------
    def on_rollback(self, depth: int, delta_bytes: int) -> None:
        self.rollback_depth_frames.observe(depth)
        self.rollback_delta_bytes.inc(delta_bytes)

    def on_state_served(self, num_bytes: int) -> None:
        self.state_serves.inc()
        self.state_serve_bytes.inc(num_bytes)

    def on_state_acquired(self, num_bytes: int) -> None:
        self.state_acquire_bytes.inc(num_bytes)

    # ------------------------------------------------------------------
    # Scrape time
    # ------------------------------------------------------------------
    def refresh(self, runtime) -> None:
        """Flush deferred frame-latency records into the histograms and
        the SLO scorer, so a scrape sees every presented frame."""
        runtime.drain_timeline()

    def snapshot(self, runtime) -> dict:
        """The registry plus the catalog's read rows, read off ``runtime``."""
        self.refresh(runtime)
        snap = self.registry.snapshot()
        for name, kind, read in _READ_ROWS:
            snap[kind + "s"][name] = read(runtime)
        for table in ("counters", "gauges"):
            snap[table] = dict(sorted(snap[table].items()))
        return snap
