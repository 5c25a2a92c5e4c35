"""Integration: the asyncio driver hosting many sessions in one process.

The acceptance bar for the sans-IO refactor: eight concurrent two-site
sessions (sixteen sites) multiplexed on a single event loop, each
producing exactly the per-frame checksums of its discrete-event twin —
merged inputs depend only on the sources and the lag, never on timing.
"""

from repro.core.aio import AioSessionSpec, run_sessions, simulator_checksums
from repro.core.config import SyncConfig


def make_specs(count, frames=60):
    config = SyncConfig(cfps=120, buf_frame=6)
    return [
        AioSessionSpec(
            game="counter",
            frames=frames,
            seed=100 + index,
            config=config,
            session_id=index + 1,
            linger=0.5,  # bound the post-game pump; see AioSessionSpec
        )
        for index in range(count)
    ]


class TestAioDriver:
    def test_eight_concurrent_sessions_match_the_simulator(self):
        specs = make_specs(8)
        groups = run_sessions(specs)
        assert len(groups) == 8
        for spec, runtimes in zip(specs, groups):
            checksums = [list(rt.trace.checksums) for rt in runtimes]
            # Both replicas executed every frame...
            assert all(len(c) == spec.frames for c in checksums)
            # ...agree with each other...
            assert checksums[0] == checksums[1]
            # ...and with the discrete-event twin for the same seeds.
            assert checksums[0] == simulator_checksums(spec)

    def test_sessions_are_independent(self):
        # Different seeds steer different input streams, so concurrent
        # sessions must not share any lockstep state.
        specs = make_specs(2, frames=40)
        groups = run_sessions(specs)
        first = [rt.trace.checksums for rt in groups[0]]
        second = [rt.trace.checksums for rt in groups[1]]
        assert list(first[0]) != list(second[0])


class TestAnyEngineOverRealSockets:
    """The composition the old drivers forbade: ``AioSite`` runs whatever
    engine it is handed, so speculation, a committed mode switch and a
    resync episode all cross real loopback sockets in one session."""

    FRAMES = 180

    def plan(self, consistency=None):
        from repro.core.inputs import PadSource, RandomSource
        from repro.core.multisite import two_player_plan
        from repro.emulator.machine import create_game

        return two_player_plan(
            # Digests negotiated (FEATURE_DIGEST) so the poke is caught live;
            # 180 frames at 120 fps keep the session under two seconds.
            SyncConfig(cfps=120, buf_frame=6, state_digest_interval=10),
            lambda: create_game("counter"),
            [PadSource(RandomSource(40 + site), site) for site in (0, 1)],
            game_id="counter",
            max_frames=self.FRAMES,
            frame_compute_time=0.0,
            consistency=consistency,
        )

    def test_adaptive_session_heals_an_injected_desync(self):
        import asyncio

        from repro.core.aio import AioSite, SessionHost
        from repro.core.engine import SitePeer
        from repro.core.messages import MODE_LOCKSTEP, MODE_ROLLBACK
        from repro.core.multisite import build_session
        from repro.core.policy import Adaptive
        from repro.emulator.machine import create_game
        from repro.harness.chaos import _poke_machine
        from repro.net.netem import NetemConfig
        from repro.net.udp import AsyncUdpEndpoint

        plan = self.plan(
            [
                Adaptive(create_game("counter"), initial_mode=MODE_ROLLBACK)
                for _ in (0, 1)
            ]
        )

        async def host_one_session():
            endpoints = [await AsyncUdpEndpoint.open("127.0.0.1") for _ in (0, 1)]
            peers = [SitePeer(s, endpoints[s].address) for s in (0, 1)]
            sites = [
                AioSite(plan.build_engine(s, peers, linger=0.5), endpoints[s])
                for s in (0, 1)
            ]
            host = SessionHost()
            host.add_session(sites)
            # Silent corruption of site 1's confirmed machine, mid-session.
            asyncio.get_running_loop().call_later(
                0.7, _poke_machine, sites[1].runtime.machine, 0x0100, 0x01
            )
            try:
                await host.run()
            finally:
                for endpoint in endpoints:
                    endpoint.close()
            assert not host.errors()
            return sites

        sites = asyncio.run(host_one_session())

        for site in sites:
            assert site.engine.termination == "completed"
            adaptive = site.engine.consistency
            # Loopback RTT is far under policy_lockstep_below_s: the
            # rollback-born session settled into lockstep, by handshake.
            assert adaptive.mode == MODE_LOCKSTEP
            assert ("commit", MODE_LOCKSTEP) in [
                (kind, mode) for kind, _, _, mode, _ in adaptive.switch_log
            ]
            assert adaptive.rollback.stats.speculative_frames > 0
        poked = sites[1].runtime.metrics
        assert poked.desync_detected.value >= 1
        assert poked.resync_success.value >= 1

        twin = build_session(self.plan(), NetemConfig.for_rtt(0.040))
        twin.run()
        expected = list(twin.vms[0].runtime.trace.checksums)
        assert len(expected) == self.FRAMES
        for site in sites:
            assert list(site.runtime.trace.checksums) == expected
