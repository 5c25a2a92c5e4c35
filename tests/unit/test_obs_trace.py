"""Unit: the protocol trace ring and the FrameTrace row round-trip."""

import pytest

from repro.core.replay import ReplayError, movie_from_trace
from repro.metrics.recorder import FrameTrace
from repro.obs.trace import EventTrace, TraceRecord


class TestTraceRecord:
    def test_row_round_trip(self):
        record = TraceRecord("tx", 1.5, 42, {"msg": "Sync", "peer": 1})
        row = record.to_row()
        assert row == {"kind": "tx", "t": 1.5, "frame": 42, "msg": "Sync", "peer": 1}
        back = TraceRecord.from_row(row)
        assert back == record


class TestEventTrace:
    def test_ring_is_bounded_and_counts_drops(self):
        trace = EventTrace(capacity=4)
        for i in range(10):
            trace.emit("timer", float(i), i, timer="send")
        assert len(trace) == 4
        assert trace.dropped == 6
        assert [r.frame for r in trace] == [6, 7, 8, 9]

    def test_totals_survive_ring_eviction(self):
        trace = EventTrace(capacity=2)
        for i in range(5):
            trace.emit("stall", float(i), i, waiting_on=[1])
        trace.emit("rollback", 5.0, 5, depth=1)
        assert len(trace) == 2
        assert trace.totals == {"stall": 5, "rollback": 1}

    def test_rows_last_n(self):
        trace = EventTrace()
        for i in range(5):
            trace.emit("phase", float(i), i)
        assert [r["frame"] for r in trace.rows(last_n=2)] == [3, 4]

    def test_jsonl_round_trip(self):
        trace = EventTrace()
        trace.emit("rx", 0.1, 3, msg="Sync", first=0, last=3, ack=2)
        trace.emit("stall", 0.2, 4, waiting_on=[1])
        text = trace.to_jsonl()
        assert len(text.splitlines()) == 2
        back = EventTrace.from_jsonl(text)
        assert back.rows() == trace.rows()


def make_trace(frames=5, first_frame=0):
    trace = FrameTrace(0, first_frame=first_frame)
    for i in range(frames):
        trace.record_begin(i * 0.016)
        trace.record_frame(i % 4, 1000 + i, 0.001 * i, 0.0, lag=2)
    return trace


class TestFrameTraceRows:
    def test_round_trip_preserves_everything(self):
        trace = make_trace()
        back = FrameTrace.from_rows(0, trace.to_rows())
        assert back.first_frame == trace.first_frame
        assert back.inputs == trace.inputs
        assert back.checksums == trace.checksums
        assert back.sync_stall == trace.sync_stall
        assert back.lags == trace.lags
        assert back.begin_times == trace.begin_times

    def test_begun_but_uncommitted_frame_yields_partial_row(self):
        trace = make_trace(frames=2)
        trace.record_begin(0.5)  # frame 2 began, never committed
        rows = trace.to_rows()
        assert len(rows) == 3
        assert rows[-1] == {"frame": 2, "begin": 0.5}
        back = FrameTrace.from_rows(0, rows)
        assert back.frames == 2
        assert len(back.begin_times) == 3

    def test_last_n_keeps_most_recent_rows(self):
        rows = make_trace(frames=6).to_rows(last_n=2)
        assert [r["frame"] for r in rows] == [4, 5]
        back = FrameTrace.from_rows(0, rows)
        assert back.first_frame == 4

    def test_non_contiguous_rows_rejected(self):
        rows = make_trace().to_rows()
        del rows[2]
        with pytest.raises(ValueError, match="not contiguous"):
            FrameTrace.from_rows(0, rows)

    def test_late_joiner_rows_keep_absolute_frames(self):
        trace = make_trace(frames=3, first_frame=100)
        rows = trace.to_rows()
        assert [r["frame"] for r in rows] == [100, 101, 102]
        assert FrameTrace.from_rows(1, rows).first_frame == 100


class TestMovieFromTrace:
    def test_movie_checkpoints_come_from_the_trace(self):
        trace = make_trace(frames=10)
        movie = movie_from_trace(trace, game="counter", checkpoint_interval=4)
        assert movie.inputs == trace.inputs
        assert movie.checkpoints[0] == trace.checksums[0]
        assert movie.checkpoints[9] == trace.checksums[-1]

    def test_late_joiner_trace_rejected(self):
        trace = make_trace(frames=3, first_frame=50)
        with pytest.raises(ReplayError, match="late joiner"):
            movie_from_trace(trace, game="counter")
