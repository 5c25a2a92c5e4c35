"""Building sessions: two players, N players, observers.

The conference paper assumes two sites; its journal version [16] extends to
"multiple players and observers".  The generalized lockstep core already
supports both (per-site ack/receive vectors; observers control no input
bits and never gate delivery), so this module is the assembly layer: it
wires machines, input sources, sockets, session control and drivers into a
ready-to-run set of :class:`~repro.core.vm.DistributedVM` instances on a
simulated network, and admits late joiners into a running one
(:func:`register_late_join`; the joiner is an engine built with
``donor_site=``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.core.config import SyncConfig
from repro.core.engine import GameMachine, SiteEngine, SitePeer, SiteRuntime
from repro.core.inputs import IdleSource, InputAssignment, InputSource
from repro.core.vm import DistributedVM
from repro.metrics.timeserver import TimeServer
from repro.net.netem import NetemConfig
from repro.net.simnet import SimNetwork
from repro.sim.eventloop import EventLoop

if TYPE_CHECKING:
    from repro.core.rollback import SyncInput


def site_address(site_no: int) -> str:
    """Canonical simulator address for a site."""
    return f"site{site_no}"


@dataclass
class SessionPlan:
    """Everything needed to instantiate one lockstep session."""

    config: SyncConfig
    assignment: InputAssignment
    machines: Sequence[GameMachine]
    sources: Sequence[InputSource]
    game_id: str = "game"
    session_id: int = 1
    max_frames: int = 600
    frame_compute_time: float = 0.002
    seed: int = 0
    #: Extra per-site start delay (models sites booting at different times).
    start_delays: Optional[Sequence[float]] = None
    #: Extra per-site delay between START and the first frame (Algorithm 4
    #: ablation: artificial start-up skew inside the running session).
    frame_loop_delays: Optional[Sequence[float]] = None
    #: OS sleep overshoot bound (the paper's testbed: Windows XP, ~10 ms).
    timer_granularity: float = 0.0
    #: Sites participating in the start handshake (None = all).  Late
    #: joiners are excluded here and acquire a donor's state instead.
    handshake_sites: Optional[List[int]] = None
    #: One consistency part per site (None = the paper's lockstep at
    #: every site).
    consistency: Optional[Sequence[SyncInput]] = None

    def __post_init__(self) -> None:
        n = len(self.assignment)
        if len(self.machines) != n:
            raise ValueError(
                f"{n} sites but {len(self.machines)} machines supplied"
            )
        if len(self.sources) != n:
            raise ValueError(
                f"{n} sites but {len(self.sources)} input sources supplied"
            )
        if self.start_delays is not None and len(self.start_delays) != n:
            raise ValueError("start_delays must have one entry per site")
        if self.frame_loop_delays is not None and len(self.frame_loop_delays) != n:
            raise ValueError("frame_loop_delays must have one entry per site")
        if self.consistency is not None and len(self.consistency) != n:
            raise ValueError("consistency must have one entry per site")

    def build_engine(
        self,
        site_no: int,
        peers: List[SitePeer],
        machine: Optional[GameMachine] = None,
        **options: object,
    ) -> SiteEngine:
        """Assemble one site's runtime and engine — for every driver, the
        only place that happens.

        ``machine`` replaces the planned one (a restarted site boots a
        fresh machine); ``options`` are for what the plan cannot know: a
        late joiner's or resumer's ``donor_site`` and ``last_acked_frame``,
        the driver's ``linger``, the session's time server.
        """
        runtime = SiteRuntime(
            config=self.config,
            site_no=site_no,
            assignment=self.assignment,
            machine=machine if machine is not None else self.machines[site_no],
            source=self.sources[site_no],
            peers=peers,
            game_id=self.game_id,
            session_id=self.session_id,
            handshake_sites=self.handshake_sites,
        )
        return SiteEngine(
            runtime,
            self.max_frames,
            self.consistency[site_no] if self.consistency is not None else None,
            frame_compute_time=self.frame_compute_time,
            seed=self.seed,
            frame_loop_delay=(
                self.frame_loop_delays[site_no]
                if self.frame_loop_delays is not None
                else 0.0
            ),
            timer_granularity=self.timer_granularity,
            **options,
        )


@dataclass
class Session:
    """A built session: the VMs plus shared infrastructure handles."""

    loop: EventLoop
    network: SimNetwork
    vms: List[DistributedVM]
    time_server: Optional[TimeServer] = None
    plan: Optional[SessionPlan] = None

    def run(self, horizon: float = 600.0) -> None:
        """Start every VM and run the event loop until all finish."""
        for vm in self.vms:
            vm.start()
        self.loop.run(until=horizon)
        for vm in self.vms:
            if vm.process.finished:
                vm.process.result()  # surface crashes
        unfinished = [
            vm.runtime.site_no for vm in self.vms if not vm.finished
        ]
        if unfinished:
            raise RuntimeError(
                f"sites {unfinished} did not finish {self.max_frames_of(unfinished[0])}"
                f" frames within the {horizon}s horizon "
                f"(likely stalled waiting for a peer)"
            )

    def max_frames_of(self, site: int) -> int:
        for vm in self.vms:
            if vm.runtime.site_no == site:
                return vm.engine.max_frames
        raise KeyError(site)

    def runtimes(self) -> List[SiteRuntime]:
        return [vm.runtime for vm in self.vms]


def build_session(
    plan: SessionPlan,
    netem: NetemConfig,
    loop: Optional[EventLoop] = None,
    with_time_server: bool = True,
    excluded_sites: Optional[Sequence[int]] = None,
    transport: str = "udp",
) -> Session:
    """Wire a full session over a uniformly-impaired mesh network — the one
    function that wires a mesh, a time server, runtimes, engines and
    shells; which ``SyncInput`` each site runs is ``plan.consistency``.

    ``excluded_sites`` are part of the assignment but get no VM (used by the
    late-join harness, which drives them separately).  ``transport`` selects
    the paper's UDP scheme (``"udp"``) or the TCP-like baseline (``"tcp"``,
    §3.1 ablation; the time server is disabled there because its reports
    would ride the reliable stream and distort it).
    """
    loop = loop if loop is not None else EventLoop()
    n = len(plan.assignment)
    excluded = set(excluded_sites or ())

    if transport == "udp":
        network = SimNetwork(loop, seed=plan.seed)
    elif transport == "tcp":
        from repro.net.tcpsim import TcpLikeNetwork

        network = TcpLikeNetwork(loop, seed=plan.seed)
        with_time_server = False
    else:
        raise ValueError(f"unknown transport {transport!r}; use 'udp' or 'tcp'")

    # Game-traffic mesh.
    for a in range(n):
        for b in range(a + 1, n):
            network.connect(site_address(a), site_address(b), netem)

    time_server = None
    if with_time_server:
        time_server = TimeServer(network)
        for s in range(n):
            time_server.attach_site(network, site_address(s), s)

    peers = [SitePeer(s, site_address(s)) for s in range(n)]
    vms: List[DistributedVM] = []
    for s in range(n):
        if s in excluded:
            continue
        engine = plan.build_engine(
            s,
            peers,
            time_server_address=time_server.address if time_server else None,
        )
        vms.append(
            DistributedVM(
                loop,
                network,
                engine,
                start_delay=(
                    plan.start_delays[s] if plan.start_delays is not None else 0.0
                ),
            )
        )
    return Session(loop=loop, network=network, vms=vms, time_server=time_server, plan=plan)


def register_late_join(session_vms, donor_vm, joiner_site: int) -> None:
    """Prepare a running session for a late joiner.

    * every present site marks the joiner absent (no sync traffic to it, no
      gating on it, no pruning hold-back),
    * the donor accepts ``STATE_REQUEST``s,
    * when the donor serves a snapshot at frame ``f``, every present site
      admits the joiner: its inputs gate from ``f + 1 + BufFrame`` (the
      first frame its locally-lagged input can land on) and retransmission
      windows to it start at ``f + 1``.

    In a deployment the admit broadcast rides the session-control channel;
    the harness applies it synchronously, which is equivalent as long as
    no present site is more than ``BufFrame`` frames ahead of the donor —
    lockstep guarantees that.  A donor whose part can speculate is refused:
    its snapshot would be labelled with the speculative frame while holding
    the shadow's older state.
    """
    if donor_vm.engine.consistency.spec_machine is not None:
        raise ValueError("state transfer is lockstep-only: no speculating donor")
    buf_frame = donor_vm.runtime.config.buf_frame
    for vm in session_vms:
        if vm.runtime.site_no != joiner_site:
            vm.runtime.lockstep.mark_absent(joiner_site)
    recovery = donor_vm.runtime.recovery
    recovery.donor = True

    def on_served(site: int, snapshot_frame: int) -> None:
        first_gating = snapshot_frame + 1 + buf_frame
        for vm in session_vms:
            if vm.runtime.site_no != joiner_site:
                vm.runtime.lockstep.admit_site(
                    site, first_gating, ack_hint=snapshot_frame
                )

    recovery.on_snapshot_served = on_served


def two_player_plan(
    config: SyncConfig,
    machine_factory: Callable[[], GameMachine],
    sources: Sequence[InputSource],
    **kwargs: object,
) -> SessionPlan:
    """The paper's configuration: two sites, one player each."""
    if len(sources) != 2:
        raise ValueError("two_player_plan needs exactly 2 sources")
    return SessionPlan(
        config=config,
        assignment=InputAssignment.standard(2),
        machines=[machine_factory(), machine_factory()],
        sources=list(sources),
        **kwargs,  # type: ignore[arg-type]
    )


def players_and_observers_plan(
    config: SyncConfig,
    machine_factory: Callable[[], GameMachine],
    player_sources: Sequence[InputSource],
    num_observers: int,
    **kwargs: object,
) -> SessionPlan:
    """N players plus observer sites that watch but control no bits."""
    num_players = len(player_sources)
    assignment = InputAssignment.with_observers(num_players, num_observers)
    total = num_players + num_observers
    sources: List[InputSource] = list(player_sources)
    sources.extend(IdleSource() for __ in range(num_observers))
    return SessionPlan(
        config=config,
        assignment=assignment,
        machines=[machine_factory() for __ in range(total)],
        sources=sources,
        **kwargs,  # type: ignore[arg-type]
    )
