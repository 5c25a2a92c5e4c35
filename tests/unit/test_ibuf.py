"""Unit tests for repro.core.ibuf (the IBuf input buffer)."""

import pytest

from repro.core.ibuf import InputBuffer
from repro.core.inputs import InputAssignment


class TestBasicStorage:
    def test_put_and_get(self):
        buffer = InputBuffer(2)
        assert buffer.put(5, 0, 0x11)
        assert buffer.get(5, 0) == 0x11

    def test_get_missing_is_none(self):
        buffer = InputBuffer(2)
        assert buffer.get(5, 0) is None
        assert not buffer.has(5, 0)

    def test_duplicate_put_ignored(self):
        """§3.1: 'only one copy of them will be kept in the buffer'."""
        buffer = InputBuffer(2)
        assert buffer.put(5, 0, 0x11)
        assert not buffer.put(5, 0, 0x11)

    def test_conflicting_put_raises(self):
        buffer = InputBuffer(2)
        buffer.put(5, 0, 0x11)
        with pytest.raises(ValueError):
            buffer.put(5, 0, 0x22)

    def test_put_window_counts_duplicates(self):
        buffer = InputBuffer(2)
        buffer.put(5, 0, 0x11)
        buffer.prune_below(4)
        assert buffer.put_window(3, 0, [0x10, 0x10, 0x11, 0x12]) == 2
        assert [buffer.get(f, 0) for f in range(3, 7)] == [None, 0x10, 0x11, 0x12]

    def test_put_window_is_all_or_nothing(self):
        buffer = InputBuffer(2)
        buffer.put(6, 0, 0x11)
        with pytest.raises(ValueError, match="frame 6"):
            buffer.put_window(5, 0, [0x10, 0x22, 0x12])
        assert len(buffer) == 1

    def test_zero_value_counts_as_present(self):
        buffer = InputBuffer(2)
        buffer.put(5, 0, 0)
        assert buffer.has(5, 0)
        assert not buffer.put(5, 0, 0)

    def test_invalid_site_count(self):
        with pytest.raises(ValueError):
            InputBuffer(0)


class TestCompleteness:
    def test_complete_requires_all_sites(self):
        buffer = InputBuffer(2)
        buffer.put(3, 0, 1)
        assert not buffer.complete(3, [0, 1])
        buffer.put(3, 1, 2)
        assert buffer.complete(3, [0, 1])

    def test_complete_with_empty_site_list(self):
        assert InputBuffer(2).complete(0, [])

    def test_complete_subset(self):
        buffer = InputBuffer(3)
        buffer.put(3, 1, 1)
        assert buffer.complete(3, [1])
        assert not buffer.complete(3, [0, 1])


class TestMerge:
    def test_merged_combines(self):
        buffer = InputBuffer(2)
        assignment = InputAssignment.standard(2)
        buffer.put(0, 0, 0x0001)
        buffer.put(0, 1, 0x0200)
        assert buffer.merged(0, assignment) == 0x0201

    def test_merged_missing_frame_is_zero(self):
        buffer = InputBuffer(2)
        assignment = InputAssignment.standard(2)
        assert buffer.merged(99, assignment) == 0

    def test_merged_partial_frame(self):
        buffer = InputBuffer(2)
        assignment = InputAssignment.standard(2)
        buffer.put(0, 1, 0x0300)
        assert buffer.merged(0, assignment) == 0x0300


class TestRangeFor:
    def test_range_returns_values(self):
        buffer = InputBuffer(2)
        for frame in range(4, 9):
            buffer.put(frame, 0, frame * 10)
        assert buffer.range_for(0, 5, 7) == [50, 60, 70]

    def test_range_with_gap_raises(self):
        buffer = InputBuffer(2)
        buffer.put(5, 0, 1)
        buffer.put(7, 0, 1)
        with pytest.raises(KeyError):
            buffer.range_for(0, 5, 7)

    def test_empty_range(self):
        assert InputBuffer(2).range_for(0, 5, 4) == []


class TestPruning:
    def test_prune_drops_old_frames(self):
        buffer = InputBuffer(2)
        for frame in range(10):
            buffer.put(frame, 0, frame)
        dropped = buffer.prune_below(5)
        assert dropped == 5
        assert buffer.floor == 5
        assert buffer.get(4, 0) is None
        assert buffer.get(5, 0) == 5

    def test_put_below_floor_rejected(self):
        buffer = InputBuffer(2)
        buffer.put(3, 0, 1)
        buffer.prune_below(5)
        assert not buffer.put(3, 0, 99)  # silently ignored, like a late dup

    def test_prune_idempotent(self):
        buffer = InputBuffer(2)
        buffer.put(0, 0, 1)
        buffer.prune_below(1)
        assert buffer.prune_below(1) == 0

    def test_prune_backwards_is_noop(self):
        buffer = InputBuffer(2)
        buffer.prune_below(10)
        assert buffer.prune_below(5) == 0
        assert buffer.floor == 10

    def test_complete_below_floor_true(self):
        buffer = InputBuffer(2)
        buffer.put(0, 0, 1)
        buffer.put(0, 1, 1)
        buffer.prune_below(3)
        assert buffer.complete(0, [0, 1])

    def test_len_tracks_slots(self):
        buffer = InputBuffer(2)
        buffer.put(0, 0, 1)
        buffer.put(0, 1, 1)
        buffer.put(1, 0, 1)
        assert len(buffer) == 2
