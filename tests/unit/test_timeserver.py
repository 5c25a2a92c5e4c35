"""Unit tests for repro.metrics.timeserver."""

import pytest

from repro.core.messages import DecodeError
from repro.metrics.timeserver import TimeServer, decode_report, encode_report
from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork


@pytest.fixture
def network(loop):
    return SimNetwork(loop, seed=0)


class TestReportCodec:
    def test_roundtrip(self):
        assert decode_report(encode_report(12345)) == 12345

    @pytest.mark.parametrize(
        "frame, size", [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)]
    )
    def test_a_report_is_the_frame_as_a_uvarint(self, frame, size):
        assert len(encode_report(frame)) == size

    def test_malformed_rejected(self):
        # Trailing bytes, empty, truncated, non-canonical.
        for raw in (b"short", b"", b"\x80", b"\x80\x00"):
            with pytest.raises(DecodeError):
                decode_report(raw)


class TestTimeServer:
    def test_records_arrival_times(self, loop, network):
        server = TimeServer(network)
        server.attach_site(network, "site0", 0)
        sock = network.socket("site0")
        loop.call_at(0.1, lambda: sock.send(encode_report(0), server.address))
        loop.call_at(0.2, lambda: sock.send(encode_report(1), server.address))
        loop.run()
        assert server.frames_recorded(0) == 2
        times = server.arrivals[0]
        assert times[0] == pytest.approx(0.1 + server.link.delay)
        assert times[1] == pytest.approx(0.2 + server.link.delay)

    def test_frame_time_series(self, loop, network):
        server = TimeServer(network)
        server.attach_site(network, "site0", 0)
        sock = network.socket("site0")
        for i, t in enumerate((0.0, 0.017, 0.033, 0.050)):
            loop.call_at(t, lambda i=i, t=t: sock.send(encode_report(i), server.address))
        loop.run()
        series = server.frame_time_series(0)
        assert len(series) == 3
        assert series[0] == pytest.approx(0.017)

    def test_synchrony_series_common_frames_only(self, loop, network):
        server = TimeServer(network)
        for site, address in enumerate(("site0", "site1")):
            server.attach_site(network, address, site)
        s0, s1 = network.socket("site0"), network.socket("site1")
        loop.call_at(0.10, lambda: s0.send(encode_report(0), server.address))
        loop.call_at(0.11, lambda: s1.send(encode_report(0), server.address))
        loop.call_at(0.20, lambda: s0.send(encode_report(1), server.address))
        # site 1 never reports frame 1
        loop.run()
        series = server.synchrony_series(0, 1)
        assert len(series) == 1
        assert series[0] == pytest.approx(-0.01)

    def test_garbage_ignored(self, loop, network):
        server = TimeServer(network)
        server.attach_site(network, "site0", 0)
        sock = network.socket("site0")
        loop.call_at(0.1, lambda: sock.send(b"garbage!", server.address))
        loop.run()
        assert server.arrivals == {}

    def test_unattached_source_ignored(self, loop, network):
        server = TimeServer(network)
        server.attach_site(network, "site0", 0)
        network.connect("stranger", server.address, server.link)
        sock = network.socket("stranger")
        loop.call_at(0.1, lambda: sock.send(encode_report(0), server.address))
        loop.run()
        assert server.arrivals == {}

    def test_custom_lan_link(self, loop, network):
        server = TimeServer(network, link=NetemConfig(delay=0.0001))
        assert server.link.delay == 0.0001
