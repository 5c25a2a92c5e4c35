"""Unit tests for repro.sim.process."""

import pytest

from repro.sim.eventloop import SimulationError
from repro.sim.process import Mailbox, ProcessCrashed, Task


class TestResult:
    def test_result_of_finished_process(self):
        task = Task("t")
        task.value = 42
        task.finished = True
        assert task.result() == 42

    def test_result_before_finish_raises(self):
        with pytest.raises(SimulationError):
            Task("t").result()

    def test_crash_surfaces_via_result(self):
        task = Task("t")
        task.error = ValueError("boom")
        task.finished = True
        with pytest.raises(ProcessCrashed) as excinfo:
            task.result()
        assert "boom" in str(excinfo.value.__cause__)


class TestMailbox:
    def test_poll_empty_returns_none(self, loop):
        box = Mailbox(loop)
        assert box.poll() is None

    def test_deliver_then_poll(self, loop):
        box = Mailbox(loop)
        loop.clock.advance(2.0)
        box.deliver("hello")
        envelope = box.poll()
        assert envelope.payload == "hello"
        assert envelope.arrived_at == 2.0

    def test_fifo_order(self, loop):
        box = Mailbox(loop)
        for i in range(5):
            box.deliver(i)
        assert [box.poll().payload for __ in range(5)] == [0, 1, 2, 3, 4]

    def test_drain_empties(self, loop):
        box = Mailbox(loop)
        box.deliver("a")
        box.deliver("b")
        assert [e.payload for e in box.drain()] == ["a", "b"]
        assert len(box) == 0
