"""Bounded ring of typed protocol trace records.

Each :class:`SiteRuntime` owns one :class:`EventTrace`.  The sans-IO engine
appends records — phase transitions, timer fires, SYNC/PING/START/STATE
traffic with frame ranges, stalls, lag changes, rollbacks, late-join state
transfer — as plain data; nothing here performs I/O.  The ring is bounded
(default 1024 records) so tracing is always on without unbounded growth:
when a desync postmortem fires, the *most recent* protocol history is
exactly what the bundle needs.

**Timebase.**  Every record's ``time`` is the ``now`` the driver injected
into the engine event that produced it — the site's single monotonic
clock (:class:`~repro.sim.clock.SimClock` under the discrete-event loop,
the asyncio loop's ``time()`` under real sockets).
Nothing in the emit path may substitute a default or wall-time value: one
site's trace, frame rows and timeline points are all mutually comparable
because they come from the *one* clock, and cross-site comparison goes
through the PING/PONG offset estimator (:class:`~repro.core.rtt.ClockAlign`)
rather than assuming timebases agree.

Record kinds (the schema documented in ``docs/observability.md``):

=================  ==========================================================
kind               detail fields
=================  ==========================================================
``phase``          ``from``, ``to``
``timer``          ``timer`` (name); TIMER_GATE fires are *not* recorded —
                   they recur every few milliseconds and would flood the ring
``tx`` / ``rx``    ``msg`` (type name), ``peer``, and for Sync messages
                   ``first`` / ``last`` (frame range) and ``ack``
``stall``          ``waiting_on`` (gating sites blocking SyncInput)
``lag``            ``from``, ``to`` (adaptive local-lag change, frames)
``rollback``       ``depth`` (frames replayed), ``from``, ``to``
``state_serve``    ``peer``, ``snapshot_frame``, ``bytes``
``state_acquire``  ``snapshot_frame``, ``bytes``
``degraded``       ``waiting_on``, ``unresponsive``, ``stalled_for``
``suspended``      ``waiting_on``, ``unresponsive``, ``stalled_for``
``resumed``        ``from`` ("degraded"/"suspended"), ``suspended_for`` or
                   ``stalled_for``
``peer_lost``      ``waiting_on``, ``suspended_for`` (resume deadline hit)
``resume_reject``  ``peer``, ``claimed`` (failed RESUME authentication)
``state_request_reject``  ``peer``, ``error`` (a STATE_REQUEST not served)
``snapshot_reject``  ``peer``, ``session``, ``at`` (a foreign STATE_SNAPSHOT)
``error``          ``message``
=================  ==========================================================
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional

#: Default ring capacity — enough for several seconds of protocol history
#: at 50 fps with a handful of records per frame.
DEFAULT_CAPACITY = 1024


@dataclass
class TraceRecord:
    """One typed protocol event: what happened, when, at which frame."""

    __slots__ = ("kind", "time", "frame", "detail")

    kind: str
    time: float
    frame: int
    detail: Dict[str, object]

    def to_row(self) -> dict:
        row = {"kind": self.kind, "t": self.time, "frame": self.frame}
        row.update(self.detail)
        return row

    @classmethod
    def from_row(cls, row: dict) -> "TraceRecord":
        detail = {
            k: v for k, v in row.items() if k not in ("kind", "t", "frame")
        }
        return cls(
            kind=str(row["kind"]),
            time=float(row["t"]),
            frame=int(row.get("frame", -1)),
            detail=detail,
        )


@dataclass
class EventTrace:
    """Bounded, always-on ring of :class:`TraceRecord`.

    ``emit`` is the hot-path entry point: one dict build plus a deque
    append (O(1), old records fall off the far end).  Everything else is
    snapshot-time only.
    """

    capacity: int = DEFAULT_CAPACITY
    dropped: int = 0
    _ring: Deque[TraceRecord] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ring = deque(maxlen=self.capacity)

    def emit(self, kind: str, time: float, frame: int, **detail: object) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(TraceRecord(kind, time, frame, detail))

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._ring)

    # ------------------------------------------------------------------
    # Serialization (snapshot time only)
    # ------------------------------------------------------------------
    def rows(self, last_n: Optional[int] = None) -> List[dict]:
        records = list(self._ring)
        if last_n is not None:
            records = records[-last_n:]
        return [record.to_row() for record in records]

    def to_jsonl(self, last_n: Optional[int] = None) -> str:
        return "\n".join(json.dumps(row, sort_keys=True) for row in self.rows(last_n))

    @classmethod
    def from_rows(
        cls, rows: Iterable[dict], capacity: int = DEFAULT_CAPACITY
    ) -> "EventTrace":
        trace = cls(capacity=capacity)
        for row in rows:
            record = TraceRecord.from_row(row)
            trace.emit(record.kind, record.time, record.frame, **record.detail)
        return trace

    @classmethod
    def from_jsonl(cls, text: str, capacity: int = DEFAULT_CAPACITY) -> "EventTrace":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        return cls.from_rows(rows, capacity=capacity)
