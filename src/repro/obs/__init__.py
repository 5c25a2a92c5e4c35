"""``repro.obs`` — the zero-dependency runtime telemetry layer.

The sync module's health used to be invisible until a run ended and the
harness computed Figure-1/2 aggregates.  This package gives every layer a
live surface instead:

* :mod:`repro.obs.registry` — counters and fixed-bucket histograms with
  O(1) hot-path recording, grouped in a :class:`Registry` per site and
  aggregated per process;
* :mod:`repro.obs.site` — :class:`SiteMetrics`, the per-``SiteRuntime``
  instrument bundle (frame time, sync stall, ``SyncAdjustTimeDelta``,
  datagram/retransmit/duplicate/out-of-window counts, ack lag, adaptive-lag
  changes, rollback and late-join costs);
* :mod:`repro.obs.trace` — :class:`EventTrace`, the bounded ring of typed
  protocol records (phase transitions, timer fires, SYNC/PING/START/STATE
  messages with frame ranges) serializable to JSONL;
* :mod:`repro.obs.catalog` — the metric catalog plus the exposition checker
  CI runs;
* :mod:`repro.obs.postmortem` — desync postmortem bundles: when the
  consistency checker trips, both sites' recent trace records, registry
  snapshots and the offending frame's inputs/checksums land in one JSON
  artifact.

Everything here is data-in/data-out: the sans-IO core appends records and
bumps counters but never performs I/O; serialization happens only when a
driver, the CLI or the postmortem writer asks for it.
"""

from repro.obs.catalog import (
    METRIC_CATALOG,
    catalog_help,
    check_exposition,
    check_monotonic,
    run_catalog_check,
)
from repro.obs.postmortem import (
    DesyncError,
    DesyncPostmortem,
    build_postmortem,
    verify_with_postmortem,
    write_postmortem,
)
from repro.obs.registry import (
    Counter,
    Histogram,
    Registry,
    aggregate_snapshots,
    to_prometheus,
)
from repro.obs.site import SiteMetrics
from repro.obs.trace import EventTrace, TraceRecord

__all__ = [
    "METRIC_CATALOG",
    "Counter",
    "DesyncError",
    "DesyncPostmortem",
    "EventTrace",
    "Histogram",
    "Registry",
    "SiteMetrics",
    "TraceRecord",
    "aggregate_snapshots",
    "build_postmortem",
    "catalog_help",
    "check_exposition",
    "check_monotonic",
    "run_catalog_check",
    "to_prometheus",
    "verify_with_postmortem",
    "write_postmortem",
]
