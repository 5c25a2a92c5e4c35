"""The four benchmark workloads, built through public builders only.

Every workload is one *two-site session*; what differs is which layers
do the work (see ``README.md`` for the layer → metric → workload table):

* ``sim-pong-lan`` — the ROADMAP baseline: the emulator is the largest
  single share and the protocol stays on its fast path.
* ``sim-counter-lossy`` — a game that costs nothing, on a lossy link: the
  protocol, codec, simulated network and event loop do all the work.
* ``sim-pong-adaptive-wan`` — the same emulator and lockstep core used
  differently: continuous rollback, delta snapshots, predictors.
* ``udp-aio-pong`` — the only workload on real sockets (loopback) and the
  asyncio driver; the simulator is absent.

The benchmark's ``--seed`` reaches the program only as generated inputs:
the ``RandomSource`` seeds of both pads and the ``SimNetwork`` loss seed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.aio import (
    AioSessionSpec,
    SessionHost,
    host_sessions,
    simulator_checksums,
)
from repro.core.config import SyncConfig
from repro.core.engine import SiteEngine, SiteRuntime
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import Session, build_session, two_player_plan
from repro.core.policy import build_adaptive_session
from repro.emulator.machine import create_game
from repro.net.netem import NetemConfig, named_profile
from repro.net.simnet import SimNetwork
from repro.net.transport import TransportStats

#: Frames per simulated session — the paper's run length.  Never cut: a
#: shorter time box means fewer sessions, not shorter ones.
SIM_FRAMES = 3600
#: The warm-up session of the set-up phase: long enough to compile every
#: block the ROM executes in steady state into the block-JIT code cache.
WARMUP_FRAMES = 300
#: Frame rate of every workload (``SyncConfig.cfps`` default).
FPS = 60
#: Seconds of session time between two readings of the cost sampler: short,
#: because the yardstick reading has to be close to the work it calibrates.
TICK = 0.1
#: A run cycles through this many input/loss seeds derived from ``--seed``
#: and pools them, so one unlucky loss pattern does not set the result.
SEED_CYCLE = 4


def session_seed(seed: int, repetition: int) -> int:
    """Seed of one session: distinct per ``--seed`` and cycle position."""
    return 64 * seed + 2 * (repetition % SEED_CYCLE)


@dataclass
class SiteView:
    """What the measurement reads from one site after its session ran."""

    runtime: SiteRuntime
    engine: SiteEngine
    transport: TransportStats


@dataclass
class Prepared:
    """One built session, ready to run once."""

    #: Runs the session to completion — the root span of a traced run.
    run: Callable[[], object]
    sites: Callable[[], List[SiteView]]
    #: Registers a callback fired every :data:`TICK` seconds of the
    #: session's own clock while it runs (it must only read).
    on_tick: Callable[[Callable[[], None]], None]
    #: The simulated network (packet-fate ground truth); None on real UDP.
    network: Optional[SimNetwork] = None
    #: Checksums the session must reproduce, from an independent driver.
    reference: Optional[Callable[[], List[int]]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # "sim" (virtual time, CPU-bound) or "udp" (real time, paced)
    build: Callable[[int, int], Prepared]  # (session seed, frames)

    def warm_up(self, seed: int) -> None:
        """Fill the caches a user's second session would find warm.

        The real-time workload warms up on its simulated twin (its
        checksum reference): the same ROM through the same engine fills
        the same code cache, without five seconds of paced wall time in
        every set-up.
        """
        prepared = self.build(seed, WARMUP_FRAMES)
        (prepared.reference or prepared.run)()


def _pads(seed: int, **kwargs: float) -> List[PadSource]:
    return [PadSource(RandomSource(seed + i, **kwargs), i) for i in (0, 1)]


def _prepared_sim(session: Session, frames: int) -> Prepared:
    def on_tick(callback: Callable[[], None]) -> None:
        # Plain events on the session's own loop: they fire in virtual
        # time, between the sites' events, and touch nothing.
        for tick in range(1, int((frames / FPS + 2.0) / TICK)):
            session.loop.call_at(tick * TICK, callback)

    return Prepared(
        run=session.run,
        sites=lambda: [
            SiteView(vm.runtime, vm.engine, vm.socket.stats) for vm in session.vms
        ],
        on_tick=on_tick,
        network=session.network,
    )


def _sim_pong_lan(seed: int, frames: int) -> Prepared:
    plan = two_player_plan(
        SyncConfig(),
        lambda: create_game("pong"),
        _pads(seed),
        max_frames=frames,
        seed=seed,
        game_id="pong",
    )
    return _prepared_sim(
        build_session(plan, NetemConfig.for_rtt(0.040), with_time_server=False),
        frames,
    )


def _sim_counter_lossy(seed: int, frames: int) -> Prepared:
    # The session behind metrics.bench.measure_bandwidth_profile.
    plan = two_player_plan(
        SyncConfig(send_interval=0.020),
        lambda: create_game("counter"),
        _pads(seed),
        max_frames=frames,
        seed=seed,
        game_id="counter",
    )
    return _prepared_sim(
        build_session(
            plan, NetemConfig.for_rtt(0.040, loss=0.05), with_time_server=False
        ),
        frames,
    )


def _sim_pong_adaptive_wan(seed: int, frames: int) -> Prepared:
    return _prepared_sim(
        build_adaptive_session(
            lambda: create_game("pong"),
            _pads(seed, toggle_p=0.08),
            named_profile("mobile-burst", rtt=0.240),
            frames=frames,
            seed=seed,
            game_id="pong",
        ),
        frames,
    )


def _udp_aio_pong(seed: int, frames: int) -> Prepared:
    spec = AioSessionSpec(game="pong", frames=frames, seed=seed, linger=0.5)
    host = SessionHost()
    callbacks: List[Callable[[], None]] = []

    async def tick_forever() -> None:
        while True:
            await asyncio.sleep(TICK)
            for callback in callbacks:
                callback()

    async def main() -> None:
        # core.aio.run_sessions is asyncio.run(host_sessions(...)); this
        # is the same with a ticker task beside it when someone listens.
        ticker = asyncio.ensure_future(tick_forever()) if callbacks else None
        try:
            await host_sessions([spec], session_host=host)
        finally:
            if ticker is not None:
                ticker.cancel()
                await asyncio.gather(ticker, return_exceptions=True)

    return Prepared(
        run=lambda: asyncio.run(main()),
        sites=lambda: [
            SiteView(site.runtime, site.engine, site.endpoint.stats)
            for site in host.sites
        ],
        on_tick=callbacks.append,
        reference=lambda: simulator_checksums(spec),
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("sim-pong-lan", "sim", _sim_pong_lan),
        Workload("sim-counter-lossy", "sim", _sim_counter_lossy),
        Workload("sim-pong-adaptive-wan", "sim", _sim_pong_adaptive_wan),
        Workload("udp-aio-pong", "udp", _udp_aio_pong),
    )
}
