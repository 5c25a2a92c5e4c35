"""Unit tests for repro.sim.eventloop."""

import pytest

from repro.sim.eventloop import SimulationError


class TestScheduling:
    def test_call_at_runs_at_time(self, loop):
        fired = []
        loop.call_at(1.0, lambda: fired.append(loop.clock.now()))
        loop.run()
        assert fired == [1.0]

    def test_call_later_relative(self, loop):
        loop.call_at(1.0, lambda: None)
        loop.run()
        fired = []
        loop.call_later(0.5, lambda: fired.append(loop.clock.now()))
        loop.run()
        assert fired == [1.5]

    def test_call_later_negative_delay_clamps_to_now(self, loop):
        fired = []
        loop.call_later(-5.0, lambda: fired.append(loop.clock.now()))
        loop.run()
        assert fired == [0.0]

    def test_scheduling_in_past_raises(self, loop):
        loop.call_at(2.0, lambda: None)
        loop.run()
        with pytest.raises(SimulationError):
            loop.call_at(1.0, lambda: None)

    def test_events_run_in_time_order(self, loop):
        order = []
        loop.call_at(3.0, lambda: order.append(3))
        loop.call_at(1.0, lambda: order.append(1))
        loop.call_at(2.0, lambda: order.append(2))
        loop.run()
        assert order == [1, 2, 3]

    def test_ties_run_in_insertion_order(self, loop):
        order = []
        for i in range(10):
            loop.call_at(1.0, lambda i=i: order.append(i))
        loop.run()
        assert order == list(range(10))

    def test_callback_may_schedule_more(self, loop):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                loop.call_later(1.0, lambda: chain(n + 1))

        loop.call_at(0.0, lambda: chain(0))
        loop.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert loop.clock.now() == 5.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, loop):
        fired = []
        handle = loop.call_at(1.0, lambda: fired.append(1))
        loop.cancel(handle)
        loop.run()
        assert fired == []

    def test_cancel_one_of_many(self, loop):
        fired = []
        loop.call_at(1.0, lambda: fired.append("a"))
        handle = loop.call_at(1.0, lambda: fired.append("b"))
        loop.call_at(1.0, lambda: fired.append("c"))
        loop.cancel(handle)
        loop.run()
        assert fired == ["a", "c"]

    def test_is_empty_skips_cancelled(self, loop):
        handle = loop.call_at(1.0, lambda: None)
        assert not loop.is_empty()
        loop.cancel(handle)
        assert loop.is_empty()


class TestRun:
    def test_run_until_horizon(self, loop):
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(5.0, lambda: fired.append(5))
        loop.run(until=2.0)
        assert fired == [1]
        assert loop.clock.now() == 2.0

    def test_run_resumes_after_horizon(self, loop):
        fired = []
        loop.call_at(5.0, lambda: fired.append(5))
        loop.run(until=2.0)
        loop.run()
        assert fired == [5]

    def test_horizon_advances_clock_even_without_events(self, loop):
        loop.run(until=7.0)
        assert loop.clock.now() == 7.0

    def test_empty_run_completes(self, loop):
        loop.run()
        assert loop.clock.now() == 0.0

    def test_max_events_guard(self, loop):
        def forever():
            loop.call_later(0.0, forever)

        loop.call_at(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run(max_events=1000)

    def test_not_reentrant(self, loop):
        errors = []

        def nested():
            try:
                loop.run()
            except SimulationError as exc:
                errors.append(exc)

        loop.call_at(0.0, nested)
        loop.run()
        assert len(errors) == 1

    def test_events_processed_counter(self, loop):
        for i in range(5):
            loop.call_at(float(i), lambda: None)
        loop.run()
        assert loop.events_processed == 5

    def test_step_returns_false_when_empty(self, loop):
        assert loop.step() is False

    def test_step_runs_single_event(self, loop):
        fired = []
        loop.call_at(1.0, lambda: fired.append(1))
        loop.call_at(2.0, lambda: fired.append(2))
        assert loop.step() is True
        assert fired == [1]

    def test_step_and_run_agree_on_the_clock_and_the_count(self, loop):
        loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        assert loop.step() is True
        assert (loop.clock.now(), loop.events_processed) == (1.0, 1)
        loop.run()
        assert (loop.clock.now(), loop.events_processed) == (2.0, 2)


class TestRunWithCancelledEntries:
    """``run`` pops inline; cancelled entries are dropped wherever they
    surface and never count as events."""

    def test_cancelled_head_does_not_hide_the_horizon(self, loop):
        fired = []
        head = loop.call_at(1.0, lambda: fired.append("cancelled"))
        loop.call_at(3.0, lambda: fired.append("late"))
        loop.cancel(head)
        loop.run(until=2.0)
        assert fired == [] and loop.events_processed == 0
        assert loop.clock.now() == 2.0
        assert not loop.is_empty()
        loop.run()
        assert fired == ["late"] and loop.clock.now() == 3.0

    def test_cancelled_head_past_the_horizon_is_dropped_not_run(self, loop):
        head = loop.call_at(5.0, lambda: None)
        loop.cancel(head)
        loop.run(until=2.0)
        assert loop.is_empty() and loop.clock.now() == 2.0

    def test_callback_cancels_a_later_entry_at_the_same_instant(self, loop):
        fired = []
        handles = {}
        loop.call_at(1.0, lambda: loop.cancel(handles["b"]))
        handles["b"] = loop.call_at(1.0, lambda: fired.append("b"))
        loop.call_at(1.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["c"] and loop.events_processed == 2

    def test_max_events_counts_executed_callbacks_only(self, loop):
        for i in range(5):
            loop.cancel(loop.call_at(float(i), lambda: None))
        for i in range(3):
            loop.call_at(10.0 + i, lambda: None)
        loop.run(max_events=4)  # three real events: under the guard
        assert loop.events_processed == 3
        for i in range(4):
            loop.call_at(20.0 + i, lambda: None)
        with pytest.raises(SimulationError, match="max_events=4"):
            loop.run(max_events=4)
        assert loop.events_processed == 7  # the fourth ran, then the guard

    def test_call_later_from_a_callback_uses_the_advanced_clock(self, loop):
        fired = []
        loop.call_at(
            2.0, lambda: loop.call_later(0.5, lambda: fired.append(loop.clock.now()))
        )
        loop.run()
        assert fired == [2.5]
