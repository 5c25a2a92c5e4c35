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

    def plan(self, consistency=None, game="counter", **config):
        from repro.core.inputs import PadSource, RandomSource
        from repro.core.multisite import two_player_plan
        from repro.emulator.machine import create_game

        return two_player_plan(
            # Digests negotiated (FEATURE_DIGEST) so the poke is caught live;
            # 180 frames at 120 fps keep the session under two seconds.
            SyncConfig(cfps=120, buf_frame=6, state_digest_interval=10, **config),
            lambda: create_game(game),
            [PadSource(RandomSource(40 + site), site) for site in (0, 1)],
            game_id=game,
            max_frames=self.FRAMES,
            frame_compute_time=0.0,
            consistency=consistency,
        )

    def host_poked_session(self, plan, poke_at):
        """One session on a fresh loop, with a silent corruption of site
        1's confirmed machine ``poke_at`` seconds in.  Returns its sites
        and, per site, whether each ``endpoint.send`` went out (True) or
        raised (False), in call order."""
        import asyncio

        from repro.core.aio import AioSite, SessionHost
        from repro.core.engine import SitePeer
        from repro.harness.chaos import _poke_machine
        from repro.net.udp import AsyncUdpEndpoint

        def log_sends(endpoint):
            real_send, outcomes = endpoint.send, []

            def send(payload, destination):
                outcomes.append(False)
                real_send(payload, destination)
                outcomes[-1] = True

            endpoint.send = send
            return outcomes

        async def host_one_session():
            endpoints = [await AsyncUdpEndpoint.open("127.0.0.1") for _ in (0, 1)]
            peers = [SitePeer(s, endpoints[s].address) for s in (0, 1)]
            sites = [
                AioSite(plan.build_engine(s, peers, linger=0.5), endpoints[s])
                for s in (0, 1)
            ]
            host = SessionHost()
            host.add_session(sites)
            sent = [log_sends(endpoint) for endpoint in endpoints]
            asyncio.get_running_loop().call_later(
                poke_at, _poke_machine, sites[1].runtime.machine, 0x0100, 0x01
            )
            try:
                await host.run()
            finally:
                for endpoint in endpoints:
                    endpoint.close()
            assert host.errors() == []
            return sites, sent

        return asyncio.run(host_one_session())

    def test_adaptive_session_heals_an_injected_desync(self):
        from repro.core.messages import MODE_LOCKSTEP, MODE_ROLLBACK
        from repro.core.multisite import build_session
        from repro.core.policy import Adaptive
        from repro.emulator.machine import create_game
        from repro.net.netem import NetemConfig

        plan = self.plan(
            [
                Adaptive(create_game("counter"), initial_mode=MODE_ROLLBACK)
                for _ in (0, 1)
            ]
        )
        sites, _ = self.host_poked_session(plan, poke_at=0.7)

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

    def test_unsendable_snapshot_ends_in_a_named_desync(self):
        """A console game's 64 KiB savestate does not fit a UDP datagram
        (``MAX_DATAGRAM``): the resync snapshot is a lost datagram, counted
        and traced once per failing streak, the episode runs into
        ``resync_deadline_s`` and the session ends as docs/failure-modes.md
        promises — not with ``ValueError`` escaping the serving site."""
        plan = self.plan(game="pong", resync_deadline_s=0.5)
        sites, sent = self.host_poked_session(plan, poke_at=0.5)

        named = {
            "completed",
            "shutdown",
            "handshake-timeout",
            "acquire-timeout",
            "peer-lost",
            "desync",
        }
        assert all(site.engine.termination in named for site in sites)
        assert sites[1].engine.termination == "desync"
        assert sites[1].runtime.metrics.desync_detected.value >= 1
        assert sum(site.runtime.metrics.send_errors.value for site in sites) > 0
        for site, outcomes in zip(sites, sent):
            failed = outcomes.count(False)
            assert site.runtime.metrics.send_errors.value == failed
            # One trace record per failing streak, however long it ran.
            streaks = sum(
                1
                for previous, ok in zip([True] + outcomes, outcomes)
                if previous and not ok
            )
            traced = [
                r
                for r in site.runtime.events
                if r.kind == "error" and "send" in str(r.detail)
            ]
            assert len(traced) == streaks
