"""Unit tests for repro.net.simnet (the simulated UDP network)."""

import pytest

from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork


@pytest.fixture
def network(loop):
    return SimNetwork(loop, seed=1)


class TestDelivery:
    def test_basic_delivery(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(delay=0.01))
        a.send(b"hello", "b")
        loop.run()
        datagrams = b.receive_all()
        assert len(datagrams) == 1
        assert datagrams[0].payload == b"hello"
        assert datagrams[0].source == "a"
        assert datagrams[0].arrived_at == pytest.approx(0.01)

    def test_bidirectional(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(delay=0.01))
        a.send(b"ping", "b")
        b.send(b"pong", "a")
        loop.run()
        assert [d.payload for d in b.receive_all()] == [b"ping"]
        assert [d.payload for d in a.receive_all()] == [b"pong"]

    def test_asymmetric_link(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect(
            "a", "b", NetemConfig(delay=0.01), reverse_config=NetemConfig(delay=0.5)
        )
        a.send(b"fast", "b")
        b.send(b"slow", "a")
        loop.run()
        (datagram,) = b.receive_all()
        assert datagram.arrived_at == pytest.approx(0.01)
        (datagram,) = a.receive_all()
        assert datagram.arrived_at == pytest.approx(0.5)

    def test_unknown_destination_silently_dropped(self, loop, network):
        a = network.socket("a")
        a.send(b"void", "nowhere")
        loop.run()  # no crash; UDP semantics

    def test_default_link_used_for_unconfigured_pairs(self, loop, network):
        network.set_default_link(NetemConfig(delay=0.2))
        a = network.socket("a")
        b = network.socket("b")
        a.send(b"x", "b")
        loop.run()
        (datagram,) = b.receive_all()
        assert datagram.arrived_at == pytest.approx(0.2)

    def test_no_default_link_means_unreachable(self, loop, network):
        network.set_default_link(None)
        a = network.socket("a")
        b = network.socket("b")
        a.send(b"x", "b")
        loop.run()
        assert b.receive_all() == []

    def test_loss_drops_packets(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(loss=1.0))
        for __ in range(10):
            a.send(b"x", "b")
        loop.run()
        assert b.receive_all() == []
        assert a.stats.datagrams_dropped == 10

    def test_duplication_delivers_twice(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(duplicate=1.0))
        a.send(b"x", "b")
        loop.run()
        assert len(b.receive_all()) == 2
        assert a.stats.datagrams_duplicated == 1

    def test_stats_counters(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig())
        a.send(b"12345", "b")
        loop.run()
        b.receive_all()
        assert a.stats.datagrams_sent == 1
        assert a.stats.bytes_sent == 5
        assert b.stats.datagrams_received == 1
        assert b.stats.bytes_received == 5


class TestSocketLifecycle:
    def test_socket_identity(self, network):
        assert network.socket("a") is network.socket("a")

    def test_closed_socket_rejects_send(self, loop, network):
        a = network.socket("a")
        a.close()
        with pytest.raises(RuntimeError):
            a.send(b"x", "b")

    def test_closed_socket_ignores_delivery(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(delay=0.01))
        a.send(b"x", "b")
        b.close()
        loop.run()
        assert b.receive_all() == []


class TestMailboxIntegration:
    def test_process_blocks_until_arrival(self, loop, network):
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(delay=0.25))
        received = []

        def consumer():
            envelope = b.mailbox.poll()
            received.append((envelope.payload.payload, loop.clock.now()))

        b.mailbox.listener = consumer
        a.send(b"wake", "b")
        loop.run()
        assert received == [(b"wake", 0.25)]


class TestDeterminism:
    def _run(self, seed: int):
        from repro.sim.eventloop import EventLoop

        loop = EventLoop()
        network = SimNetwork(loop, seed=seed)
        a = network.socket("a")
        b = network.socket("b")
        network.connect("a", "b", NetemConfig(delay=0.01, jitter=0.005, loss=0.2))
        for i in range(100):
            loop.call_at(i * 0.01, lambda i=i: a.send(bytes([i % 256]), "b"))
        loop.run()
        return [(d.payload, d.arrived_at) for d in b.receive_all()]

    def test_same_seed_same_trace(self):
        assert self._run(3) == self._run(3)

    def test_different_seed_different_trace(self):
        assert self._run(3) != self._run(4)
