"""Integration: the asyncio driver hosting many sessions in one process.

The acceptance bar for the sans-IO refactor: eight concurrent two-site
sessions (sixteen sites) multiplexed on a single event loop, each
producing exactly the per-frame checksums of its discrete-event twin —
merged inputs depend only on the sources and the lag, never on timing.
"""

import ast
import asyncio
import gc
import os
import selectors
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core.aio import (
    AioSessionSpec,
    AioSite,
    SessionHost,
    run_sessions,
    simulator_checksums,
)
from repro.core.config import SyncConfig
from repro.core.engine import SitePeer
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import two_player_plan
from repro.emulator.machine import MachineError, create_game
from repro.net.udp import AsyncUdpEndpoint


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
        from repro.harness.chaos import _poke_machine

        def log_sends(endpoint):
            real_send, outcomes = endpoint.send, []

            def send(payload, destination):
                outcomes.append(False)
                real_send(payload, destination)
                outcomes[-1] = True

            endpoint.send = send
            return outcomes

        sent = []

        def instrument(sites):
            sent.extend(log_sends(site.endpoint) for site in sites)
            asyncio.get_running_loop().call_later(
                poke_at, _poke_machine, sites[1].runtime.machine, 0x0100, 0x01
            )

        host, sites = asyncio.run(host_pair(plan, instrument))
        assert host.errors() == []
        return sites, sent

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
            # Loopback RTT is far under POLICY_LOCKSTEP_BELOW_S: the
            # rollback-born session settled into lockstep, by handshake.
            assert adaptive.mode == MODE_LOCKSTEP
            assert ("commit", MODE_LOCKSTEP) in [
                (kind, mode) for kind, _, _, mode, _ in adaptive.switch_log
            ]
            assert adaptive.rollback.stats.speculative_frames > 0
        poked = sites[1].engine.snapshot()["counters"]
        assert poked["desync_detected"] >= 1
        assert poked["resync_success"] >= 1

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
        assert sites[1].engine.snapshot()["counters"]["desync_detected"] >= 1
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


class TestHostedEndpointsAreClosed:
    def test_a_spec_that_fails_to_build_leaks_no_socket(self, monkeypatch):
        """Sockets are bound per spec before its engines are built; a spec
        whose game does not exist must not leave its pair (or anyone's)
        bound for the life of the host process."""
        opened = []
        real_open = AsyncUdpEndpoint.open.__func__

        async def recording_open(cls, *args, **kwargs):
            opened.append(await real_open(cls, *args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(AsyncUdpEndpoint, "open", classmethod(recording_open))
        specs = make_specs(2, frames=10)
        specs[1].game = "no-such-game"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MachineError):
                run_sessions(specs)
            closing = [endpoint._transport.is_closing() for endpoint in opened]
            opened.clear()
            gc.collect()
        assert closing == [True] * 4
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def shell_plan(frames=120, cfps=120):
    return two_player_plan(
        SyncConfig(cfps=cfps, buf_frame=6),
        lambda: create_game("counter"),
        [PadSource(RandomSource(40 + site), site) for site in (0, 1)],
        game_id="counter",
        max_frames=frames,
        frame_compute_time=0.0,
    )


async def host_pair(plan, prepare=lambda sites: None):
    """One two-site session on the running loop; ``prepare(sites)`` may
    instrument the sites before they start.  Returns (host, sites)."""
    endpoints = [await AsyncUdpEndpoint.open() for _ in (0, 1)]
    peers = [SitePeer(s, endpoints[s].address) for s in (0, 1)]
    sites = [
        AioSite(plan.build_engine(s, peers, linger=0.5), endpoints[s])
        for s in (0, 1)
    ]
    host = SessionHost()
    host.add_session(sites)
    prepare(sites)
    try:
        await asyncio.wait_for(host.run(), timeout=30.0)
    finally:
        for endpoint in endpoints:
            endpoint.close()
    return host, sites


class TestAioSiteShell:
    """``AioSite`` is two callbacks around one per-wake-up function; what
    ``SessionHost`` and the tests rely on is pinned here, as
    ``tests/unit/test_vm_driver.py`` does for the simulator's shell."""

    def test_a_wakeup_that_raises_surfaces_from_run_and_stops_the_sibling(self):
        def crash_at_frame_50(sites):
            engine = sites[1].engine
            poll = engine.poll

            def poll_until_frame_50(*args):
                if engine.runtime.frame >= 50:
                    raise ValueError("boom at frame 50")
                return poll(*args)

            engine.poll = poll_until_frame_50

        host, (survivor, crashed) = asyncio.run(
            host_pair(shell_plan(), crash_at_frame_50)
        )
        assert [str(error) for error in host.errors()] == ["boom at frame 50"]
        assert isinstance(crashed.error, ValueError) and survivor.error is None
        assert crashed.runtime.frame == 50 and not crashed.finished
        # Stopped at its next wake-up, not left parked for its linger.
        assert survivor.engine.termination == "shutdown"
        assert not survivor.finished

    def test_run_reraises_what_the_wakeup_raised(self):
        async def scenario():
            endpoints = [await AsyncUdpEndpoint.open() for _ in (0, 1)]
            peers = [SitePeer(s, endpoints[s].address) for s in (0, 1)]
            site = AioSite(shell_plan().build_engine(0, peers), endpoints[0])
            site.engine.poll = lambda *args: 1 / 0
            try:
                with pytest.raises(ZeroDivisionError):
                    await asyncio.wait_for(site.run(), timeout=5.0)
                # It stays down: nothing is parked, no timer is left.
                loop = asyncio.get_running_loop()
                assert [h for h in loop._scheduled if not h.cancelled()] == []
            finally:
                for endpoint in endpoints:
                    endpoint.close()

        asyncio.run(scenario())

    def test_request_stop_from_a_siblings_wakeup_is_not_reentrant(self):
        seen = {}

        def stop_sibling_at_frame_20(sites):
            caller, target = sites
            poll = caller.engine.poll

            def poll_and_stop(*args):
                if caller.runtime.frame >= 20 and not seen:
                    records = len(target.runtime.events)
                    target.request_stop()
                    # Still inside the caller's wake-up: the target has not
                    # run, it will in a loop iteration of its own.
                    seen["ran_inside"] = (
                        target.engine.done or len(target.runtime.events) != records
                    )
                elif target.engine.done:
                    caller.request_stop()  # from its own wake-up: same rule
                return poll(*args)

            caller.engine.poll = poll_and_stop

        host, (caller, target) = asyncio.run(
            host_pair(shell_plan(frames=600), stop_sibling_at_frame_20)
        )
        assert seen == {"ran_inside": False}
        assert host.errors() == []
        assert target.engine.termination == "shutdown"
        assert target.runtime.frame < 40  # its next wake-up, not some later one
        assert caller.engine.termination == "shutdown"
        assert caller.runtime.frame < 60

    def test_stop_requested_before_run_takes_effect_at_the_first_wakeup(self):
        def stop_first(sites):
            for site in sites:
                site.request_stop()

        host, sites = asyncio.run(host_pair(shell_plan(), stop_first))
        assert host.errors() == []
        for site in sites:
            assert site.engine.termination == "shutdown"
            assert site.runtime.frame == 0


class CountingSelector(selectors.DefaultSelector):
    """Counts event-loop iterations: each one polls the selector once."""

    selects = 0

    def select(self, timeout=None):
        self.selects += 1
        return super().select(timeout)


def test_a_wakeup_is_one_event_loop_iteration(monkeypatch):
    """The gate on the shell's shape, through public API only: over a
    session, the loop iterates about once per parking (``wait``).  A
    per-wake-up future costs a second iteration to resume its task (the
    coroutine shell read 1.83)."""
    waits = []
    real_wait = AsyncUdpEndpoint.wait

    def counting_wait(self, deadline, callback):
        waits.append(deadline)
        real_wait(self, deadline, callback)

    monkeypatch.setattr(AsyncUdpEndpoint, "wait", counting_wait)
    selector = CountingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        host, sites = loop.run_until_complete(
            host_pair(shell_plan(frames=300, cfps=240))
        )
    finally:
        loop.close()
    assert host.errors() == [] and all(site.finished for site in sites)
    assert len(waits) > 600
    assert selector.selects <= 1.1 * len(waits)


def test_driver_costs_script_measures_both_drivers():
    """``benchmarks/driver_costs.py`` (docs/performance.md §8) still runs:
    30 frames, in its own process because it patches two classes."""
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "benchmarks")]),
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "from driver_costs import measure_driver_costs as m; print(m(frames=30))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    costs = ast.literal_eval(result.stdout)
    assert set(costs) == {
        "sim_step_us", "sim_poll_cpu_us", "aio_step_us", "aio_poll_cpu_us",
    }
    assert all(value > 0 for value in costs.values())
