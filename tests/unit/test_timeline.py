"""Unit tests for frame-latency attribution (repro.obs.timeline + ClockAlign).

Covers the three properties the observability PR's acceptance hangs on:

* clock-offset convergence under asymmetric jitter (the NTP-style filter
  must keep the estimate within a fraction of the one-way delay);
* span reassembly under loss, duplication and reordering of stamps
  (records degrade to partial/estimated attribution, never corrupt);
* the Chrome trace-event export round-trips through JSON with the exact
  structure Perfetto expects.
"""

import json

from repro.core.rtt import ClockAlign
from repro.obs.timeline import (
    P_CAPTURE,
    P_FLUSH,
    FrameTimeline,
    TimelineCollector,
    chrome_trace,
)

TPF = 1 / 60.0


class TestClockAlign:
    def test_symmetric_exchanges_recover_offset(self):
        align = ClockAlign()
        true_offset = 0.250  # peer clock is 250 ms ahead
        one_way = 0.030
        for i in range(20):
            t1 = i * 0.5
            t2 = t1 + one_way + true_offset
            t4 = t1 + 2 * one_way
            align.on_sample(t1, t2, t4)
        assert align.aligned
        assert abs(align.offset - true_offset) < 1e-9

    def test_asymmetric_jitter_filtered(self):
        """Queue spikes in one direction bias raw θ by half the spike;
        the min-delay filter must reject them.  Error stays under 10% of
        the one-way delay even when most exchanges are jittered."""
        align = ClockAlign()
        true_offset = -0.120
        one_way = 0.060
        # Deterministic jitter pattern: every 3rd exchange clean, the rest
        # delayed 5-45 ms in the *forward* direction only.
        for i in range(60):
            spike = 0.0 if i % 3 == 0 else 0.005 * (1 + (i * 7) % 9)
            t1 = i * 0.5
            t2 = t1 + one_way + spike + true_offset
            t4 = t1 + 2 * one_way + spike
            align.on_sample(t1, t2, t4)
        assert align.aligned
        assert align.rejected > 0
        assert abs(align.offset - true_offset) < 0.1 * one_way

    def test_to_local_inverts_offset(self):
        align = ClockAlign()
        align.on_sample(0.0, 0.030 + 1.5, 0.060)
        assert abs(align.to_local(2.0) - (2.0 - 1.5)) < 1e-9


def drive_frame(collector, frame, base, stamp=True):
    """One well-behaved frame through all hooks; returns the record."""
    if stamp:
        collector.on_stamp(1, frame, base + 0.002, base)
    collector.on_remote_frames(1, frame, frame, base + 0.060, base + 0.0605)
    collector.on_gate_open(frame, base + 0.061)
    return collector.on_present(frame, base + 0.062)


class TestSpanReassembly:
    def test_complete_record_telescopes_exactly(self):
        collector = TimelineCollector(TPF)
        record = drive_frame(collector, 0, 10.0)
        assert record.complete
        stages = record.stages()
        assert set(stages) == {"encode", "wire", "decode", "gate", "step", "present"}
        # Exact telescoping: the stage sum IS the end-to-end latency.
        assert sum(stages.values()) == record.end_to_end

    def test_lost_stamp_degrades_to_partial(self):
        collector = TimelineCollector(TPF)
        record = drive_frame(collector, 0, 10.0, stamp=False)
        assert not record.complete
        assert record.points[P_CAPTURE] is None
        assert record.points[P_FLUSH] is None
        # Local spans still known.
        assert "gate" in record.stages() and "step" in record.stages()

    def test_later_stamp_backdates_estimated(self):
        """A window's stamp names its newest frame; earlier frames bind it
        with capture back-dated at the frame cadence and are marked
        estimated."""
        collector = TimelineCollector(TPF)
        # Stamp for frame 5 only; frames 4 and 5 both covered by its window.
        collector.on_stamp(1, 5, 10.002, 10.0)
        collector.on_remote_frames(1, 4, 5, 10.060, 10.0605)
        for frame in (4, 5):
            collector.on_gate_open(frame, 10.061)
        rec4 = collector.on_present(4, 10.062)
        rec5 = collector.on_present(5, 10.078)
        assert rec4.estimated and not rec5.estimated
        assert rec4.points[P_CAPTURE] == 10.0 - TPF
        assert rec5.points[P_CAPTURE] == 10.0

    def test_duplicate_stamp_keeps_first(self):
        collector = TimelineCollector(TPF)
        collector.on_stamp(1, 0, 10.002, 10.0)
        collector.on_stamp(1, 0, 99.0, 98.0)  # retransmit, much later clock
        record = drive_frame(collector, 0, 10.0)
        assert record.points[P_FLUSH] == 10.002

    def test_reordered_stamps_bind_lowest_covering_frame(self):
        collector = TimelineCollector(TPF)
        # Stamps arrive out of order: frame 3's before frame 1's.
        collector.on_stamp(1, 3, 10.050, 10.048)
        collector.on_stamp(1, 1, 10.010, 10.008)
        collector.on_remote_frames(1, 1, 3, 10.060, 10.0605)
        collector.on_gate_open(1, 10.061)
        record = collector.on_present(1, 10.062)
        # Frame 1 binds its own stamp, not frame 3's.
        assert record.points[P_FLUSH] == 10.010
        assert not record.estimated

    def test_duplicate_coverage_keeps_first_arrival(self):
        collector = TimelineCollector(TPF)
        collector.on_remote_frames(1, 0, 0, 10.060, 10.0605)
        collector.on_remote_frames(1, 0, 0, 10.090, 10.0905)  # dup datagram
        collector.on_gate_open(0, 10.061)
        record = collector.on_present(0, 10.062)
        assert record.points[2] == 10.060

    def test_stores_stay_bounded_under_flood(self):
        collector = TimelineCollector(TPF)
        for frame in range(10_000):
            collector.on_stamp(1, frame, frame * 1.0, frame * 1.0)
        assert len(collector._stamp_frames[1]) <= collector._STAMP_HISTORY
        assert len(collector._stamps[1]) <= collector._STAMP_HISTORY

    def test_present_prunes_stale_stamps(self):
        collector = TimelineCollector(TPF)
        for frame in range(100):
            collector.on_stamp(1, frame, float(frame), float(frame))
        # Pruning is amortized: drive enough presents to cross the sweep.
        for frame in range(65):
            drive_frame(collector, frame, 10.0 + frame * TPF, stamp=False)
        assert min(collector._stamp_frames[1]) > 60

    def test_fresh_accumulates_until_drained(self):
        collector = TimelineCollector(TPF)
        for frame in range(5):
            drive_frame(collector, frame, 10.0 + frame * TPF)
        assert len(collector.fresh) == 5
        assert collector.fresh[0] is collector.ring[0]
        collector.fresh.clear()
        assert len(collector.ring) == 5  # the flight recorder keeps them


class TestChromeTrace:
    def golden_collector(self):
        collector = TimelineCollector(TPF)
        drive_frame(collector, 0, 10.0)
        return collector

    def test_golden_roundtrip(self):
        trace = chrome_trace({0: self.golden_collector()}, session_id=3)
        parsed = json.loads(json.dumps(trace))
        assert parsed["displayTimeUnit"] == "ms"
        events = parsed["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["name"] for m in metadata} == {"process_name", "thread_name"}
        spans = [e for e in events if e["ph"] == "X"]
        assert [s["name"] for s in spans] == [
            "encode", "wire", "decode", "gate", "step", "present",
        ]
        for span in spans:
            assert span["pid"] == 3 and span["tid"] == 0
            assert isinstance(span["ts"], (int, float))
            assert span["dur"] >= 0
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["name"] == "capture"
        # Spans tile the timeline: each begins where the previous ended.
        for before, after in zip(spans, spans[1:]):
            assert abs(before["ts"] + before["dur"] - after["ts"]) < 1e-6

    def test_shift_moves_events_onto_common_timebase(self):
        plain = chrome_trace({0: self.golden_collector()})
        shifted = chrome_trace({0: self.golden_collector()}, shifts={0: 0.5})
        ts_plain = [e["ts"] for e in plain["traceEvents"] if e["ph"] == "X"]
        ts_shifted = [e["ts"] for e in shifted["traceEvents"] if e["ph"] == "X"]
        for a, b in zip(ts_plain, ts_shifted):
            assert abs(b - a - 500_000) < 1e-3  # +0.5 s in microseconds

    def test_negative_span_clamped(self):
        # A misaligned clock can put flush after arrival; the export must
        # clamp the wire span to zero rather than emit a negative dur.
        record = FrameTimeline(
            0, [10.0, 10.070, 10.060, 10.0605, 10.061, 10.062, 10.062]
        )
        trace = chrome_trace({0: type("C", (), {"ring": [record]})()})
        wire = [
            e for e in trace["traceEvents"] if e.get("name") == "wire"
        ][0]
        assert wire["dur"] == 0.0
