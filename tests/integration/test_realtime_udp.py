"""Integration: the wall-clock driver over real UDP sockets on localhost.

Short sessions at a high frame rate keep these fast (~1-2 s each) while
still exercising real sockets, real threads and the monotonic clock.
"""

import threading

import pytest

from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.messages import MODE_ROLLBACK
from repro.core.policy import Adaptive
from repro.core.realtime import RealtimeVM
from repro.emulator.machine import create_game
from repro.metrics.recorder import ConsistencyChecker
from repro.metrics.stats import mean
from repro.net.udp import UdpSocket


def run_realtime(frames=90, cfps=120.0, game="counter", consistency=None):
    """Two threaded sites over localhost UDP; returns their VMs.

    ``consistency(game)`` builds each site's consistency part (None: the
    engine's default lockstep).
    """
    config = SyncConfig(cfps=cfps, buf_frame=6)
    assignment = InputAssignment.standard(2)
    sockets = [UdpSocket(), UdpSocket()]
    peers = [SitePeer(i, sockets[i].address) for i in range(2)]
    vms = []
    try:
        for site in range(2):
            runtime = SiteRuntime(
                config=config,
                site_no=site,
                assignment=assignment,
                machine=create_game(game),
                source=PadSource(RandomSource(70 + site), player=site),
                peers=peers,
                game_id=game,
            )
            engine = SiteEngine(
                runtime,
                frames,
                consistency(game) if consistency is not None else None,
                linger=2.0,
            )
            vms.append(RealtimeVM(engine, sockets[site]))
        threads = [threading.Thread(target=vm.run) for vm in vms]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(not t.is_alive() for t in threads), "site thread hung"
        for vm in vms:
            if vm.error is not None:
                raise vm.error
        return vms
    finally:
        for sock in sockets:
            sock.close()


class FailingSocket:
    """Delegates to a real socket but every ``send`` raises — models a NIC
    or socket torn down underneath the driver."""

    def __init__(self):
        self.inner = UdpSocket()

    @property
    def address(self):
        return self.inner.address

    @property
    def clock(self):
        return self.inner.clock

    def send(self, payload, destination):
        raise OSError("injected send failure")

    def receive_all(self):
        return self.inner.receive_all()

    def receive_blocking(self, timeout):
        return self.inner.receive_blocking(timeout)

    def close(self):
        self.inner.close()


class FlakySocket:
    """A real socket whose first ``fail_sends`` sends raise — models a
    transient outage (interface flap, buffer exhaustion)."""

    def __init__(self, fail_sends=10):
        self.inner = UdpSocket()
        self.remaining = fail_sends
        self.failed = 0

    @property
    def address(self):
        return self.inner.address

    @property
    def clock(self):
        return self.inner.clock

    def send(self, payload, destination):
        if self.remaining > 0:
            self.remaining -= 1
            self.failed += 1
            raise OSError("transient send failure")
        self.inner.send(payload, destination)

    def receive_all(self):
        return self.inner.receive_all()

    def receive_blocking(self, timeout):
        return self.inner.receive_blocking(timeout)

    def close(self):
        self.inner.close()


class TestRealtimeSession:
    @pytest.mark.parametrize(
        "consistency",
        [
            None,
            # The engine the old drivers could not host: speculation over
            # a real socket (loopback RTT may later settle it to lockstep).
            lambda game: Adaptive(create_game(game), initial_mode=MODE_ROLLBACK),
        ],
        ids=["lockstep", "rollback"],
    )
    def test_replicas_converge_over_real_udp(self, consistency):
        vms = run_realtime(consistency=consistency)
        traces = [vm.runtime.trace for vm in vms]
        assert ConsistencyChecker().verify_traces(traces) == 90
        if consistency is not None:
            assert all(
                vm.engine.consistency.rollback.stats.speculative_frames > 0
                for vm in vms
            )

    def test_frame_pacing_near_target(self):
        vms = run_realtime(frames=120, cfps=120.0)
        for vm in vms:
            times = vm.runtime.trace.frame_times()
            # Real OS scheduling jitter (and CI load) is substantial at an
            # 8.3 ms budget; require the right order of magnitude, with the
            # precise pacing guarantees covered by the simulated-time tests.
            assert mean(times) == pytest.approx(1 / 120, rel=0.5)

    def test_games_play_over_real_udp(self):
        vms = run_realtime(frames=60, game="pong-py")
        assert vms[0].runtime.machine.checksum() == vms[1].runtime.machine.checksum()

    def test_rtt_estimated_on_loopback(self):
        vms = run_realtime(frames=60)
        for vm in vms:
            assert vm.runtime.rtt.samples >= 1
            assert vm.runtime.rtt.rtt < 0.1  # loopback

    def test_send_failures_are_nonfatal_and_bounded(self):
        """Send failures are transient network weather, not crashes: the
        pump counts them (``net.send_errors``) and keeps running, and the
        handshake timeout — not an exception — bounds a site whose every
        datagram fails.  (The previous behaviour, re-raising the first
        ``OSError`` out of ``run()``, turned one EPERM/ENETUNREACH blip
        into a dead site.)"""
        sock = FailingSocket()
        try:
            peers = [SitePeer(0, "127.0.0.1:9"), SitePeer(1, sock.address)]
            runtime = SiteRuntime(
                config=SyncConfig(
                    cfps=120, buf_frame=6, handshake_timeout_s=1.0
                ),
                site_no=1,  # the joiner sends HELLO immediately
                assignment=InputAssignment.standard(2),
                machine=create_game("counter"),
                source=PadSource(RandomSource(71), player=1),
                peers=peers,
                game_id="counter",
            )
            vm = RealtimeVM(SiteEngine(runtime, 30, linger=2.0), sock)
            thread = threading.Thread(target=vm.run)
            thread.start()
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "driver hung after send failures"
            assert vm.error is None, f"send failure escaped: {vm.error!r}"
            assert vm.engine.termination == "handshake-timeout"
            assert runtime.metrics.send_errors.value >= 1
            # The failures are in the trace for the postmortem bundle.
            errors = [r for r in runtime.events if r.kind == "error"]
            assert any("send" in str(r.detail) for r in errors)
        finally:
            sock.close()

    def test_transient_send_failures_recover_via_retransmission(self):
        """A burst of failed sends must not desync the session: the 20 ms
        pump keeps retransmitting the unacked window, so once the socket
        works again the peer catches up and both replicas converge."""
        config = SyncConfig(cfps=120.0, buf_frame=6)
        assignment = InputAssignment.standard(2)
        flaky = FlakySocket(fail_sends=25)
        steady = UdpSocket()
        sockets = [flaky, steady]
        peers = [SitePeer(i, sockets[i].address) for i in range(2)]
        vms = []
        try:
            for site in range(2):
                runtime = SiteRuntime(
                    config=config,
                    site_no=site,
                    assignment=assignment,
                    machine=create_game("counter"),
                    source=PadSource(RandomSource(70 + site), player=site),
                    peers=peers,
                    game_id="counter",
                )
                vms.append(
                    RealtimeVM(SiteEngine(runtime, 90, linger=2.0), sockets[site])
                )
            threads = [threading.Thread(target=vm.run) for vm in vms]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert all(not t.is_alive() for t in threads), "site thread hung"
            for vm in vms:
                assert vm.error is None
            assert flaky.failed > 0
            assert vms[0].runtime.metrics.send_errors.value == flaky.failed
            traces = [vm.runtime.trace for vm in vms]
            assert ConsistencyChecker().verify_traces(traces) == 90
        finally:
            for sock in sockets:
                sock.close()
