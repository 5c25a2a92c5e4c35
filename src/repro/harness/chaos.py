"""The chaos harness: scripted failures against a lockstep session.

Runs a two-site simulated session under a :class:`~repro.net.faults.FaultSchedule`
— timed partitions/heals, blackouts, one-way link death, per-site crash and
restart-with-resume, state-transfer corruption windows, single-site memory
pokes — and checks the failure-domain invariants:

* **No desync after heal**: every surviving site's per-frame checksums
  equal an unimpaired twin run over the overlapping frame window.
* **Bounded memory while partitioned**: the input buffer never grows past
  the frames a site can legitimately be ahead (its local lag window plus,
  with digests on, the agreed-frame retention window), no matter how long
  the partition — the gate stops the producer.
* **Resume correctness**: a crashed-then-resumed site's post-resume
  checksums equal the twin's (the replayed backlog is bit-identical).
* **Self-healing desync recovery**: a memory poke must be *detected*
  within a digest window and auto-recovered — the resynced run's
  checksums are bit-identical to the unimpaired twin's; unrecoverable
  episodes (partition during resync, quarantine) must escalate to a
  terminal ``"desync"`` with a postmortem bundle, not a hang.
* **Transfer integrity**: corrupted state-transfer chunks are rejected by
  CRC and re-requested until a clean copy lands.
* **Clean termination**: a site whose peer never returns finishes with
  ``termination == "peer-lost"`` within ``hard_stall_s + resume_deadline_s``
  instead of hanging.
* **Telemetry/ground-truth alignment**: every degraded/suspended trace
  record follows a fault in the network's ``fault_log``.

The scenarios the ``repro chaos`` CLI exposes are thin presets over
:func:`run_chaos`.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.config import SyncConfig
from repro.core.engine import SitePeer
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, site_address, two_player_plan
from repro.core.rollback import SPECULATION_WINDOW, SyncInput
from repro.core.vm import DistributedVM
from repro.net.faults import FaultSchedule
from repro.net.netem import NetemConfig

#: Per-site expected endings: ``None`` = every site must finish its
#: frames; a string = every site must terminate with it; a dict = per-site
#: (sites not listed must finish).
ExpectedTermination = Optional[Union[str, Dict[int, str]]]


def chaos_config(**overrides: object) -> SyncConfig:
    """Paper defaults with failure budgets tightened for short tests.

    Timeline attribution is on so the harness can assert not just *that*
    a fault degraded the session but that the degradation was charged to
    the right stage (a partition shows up as encode/wire latency, not an
    anonymous stall).
    """
    base = dict(
        soft_stall_s=0.25,
        hard_stall_s=1.0,
        resume_deadline_s=5.0,
        suspend_backoff_max_s=0.4,
        timeline=True,
    )
    base.update(overrides)
    return SyncConfig(**base)  # type: ignore[arg-type]


def resync_config(**overrides: object) -> SyncConfig:
    """:func:`chaos_config` plus live digests and a tight resync budget."""
    base = dict(
        state_digest_interval=10,
        resync_deadline_s=3.0,
    )
    base.update(overrides)
    return chaos_config(**base)


@dataclass
class SiteOutcome:
    """One site's end state after the chaos run."""

    site_no: int
    termination: Optional[str]
    finished: bool
    first_frame: int
    checksums: List[int]
    metrics: Dict[str, object]
    trace: List[dict]
    resumed: bool = False
    #: SLO scorer snapshot (``None`` when the run had timeline off).
    slo: Optional[Dict[str, object]] = None


@dataclass
class ChaosResult:
    """Everything the assertions (CLI and pytest) need from one run."""

    outcomes: List[SiteOutcome]
    twin_checksums: List[int]
    fault_log: List[dict]
    ground_truth: Dict[str, int]
    ibuf_high_water: Dict[int, int]
    problems: List[str] = field(default_factory=list)
    #: Postmortem bundles written for terminal-desync sites (one per run).
    postmortems: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.problems

    def outcome(self, site_no: int, resumed: bool = False) -> SiteOutcome:
        for out in self.outcomes:
            if out.site_no == site_no and out.resumed == resumed:
                return out
        raise KeyError((site_no, resumed))


def _build_chaos_session(
    frames: int, seed: int, game: str, config: SyncConfig, rtt: float,
    mode: str,
):
    """One simulated session in the requested consistency ``mode``."""
    from repro.emulator.machine import create_game

    plan = two_player_plan(
        config,
        machine_factory=lambda: create_game(game),
        sources=[PadSource(RandomSource(seed + s), s) for s in (0, 1)],
        game_id=game,
        max_frames=frames,
        seed=seed,
        consistency=(
            [SyncInput(create_game(game), SPECULATION_WINDOW) for _ in (0, 1)]
            if mode == "rollback"
            else None
        ),
    )
    return build_session(plan, NetemConfig.for_rtt(rtt))


def _twin_checksums(
    frames: int, seed: int, game: str, config: SyncConfig, rtt: float,
    mode: str = "lockstep",
) -> List[int]:
    """Per-frame checksums of the same session with no faults."""
    session = _build_chaos_session(frames, seed, game, config, rtt, mode)
    session.run()
    return list(session.vms[0].runtime.trace.checksums)


def _checksum_mismatch(outcome: SiteOutcome, twin: List[int]) -> Optional[str]:
    """Compare an outcome's checksums to the twin over the overlap."""
    for index, checksum in enumerate(outcome.checksums):
        frame = outcome.first_frame + index
        if frame >= len(twin):
            return f"site {outcome.site_no} ran past the twin at frame {frame}"
        if checksum != twin[frame]:
            return (
                f"site {outcome.site_no} desynced at frame {frame}: "
                f"0x{checksum:08x} != twin 0x{twin[frame]:08x}"
            )
    return None


def _poke_machine(machine, address: int, mask: int) -> None:
    """XOR one byte of a live machine's state (the silent-corruption fault)."""
    blob = bytearray(machine.save_state())
    blob[address % len(blob)] ^= (mask & 0xFF) or 0x01
    machine.load_state(bytes(blob))


def run_chaos(
    schedule: FaultSchedule,
    frames: int = 240,
    seed: int = 7,
    game: str = "counter",
    config: Optional[SyncConfig] = None,
    rtt: float = 0.040,
    horizon: float = 600.0,
    expect_completion: bool = True,
    mode: str = "lockstep",
    expected_termination: ExpectedTermination = None,
    artifact_dir: Optional[str] = None,
) -> ChaosResult:
    """Run one scripted chaos session and evaluate the invariants.

    ``expect_completion=False`` is for abandonment scenarios (a crashed
    peer that never restarts): surviving sites are then required to
    terminate with ``peer-lost`` rather than to finish their frames.
    ``expected_termination`` generalizes that for the desync-escalation
    scenarios (see :data:`ExpectedTermination`).  ``mode`` selects the
    consistency engine (``"lockstep"`` or ``"rollback"``); crash/restart
    directives are lockstep-only.  When ``artifact_dir`` is given, any
    terminal-``"desync"`` ending writes a postmortem bundle there.
    """
    from repro.emulator.machine import create_game

    config = config if config is not None else chaos_config()
    if mode == "rollback" and schedule.crashes:
        raise ValueError("crash/restart faults are lockstep-only")
    twin = _twin_checksums(frames, seed, game, config, rtt, mode)

    session = _build_chaos_session(frames, seed, game, config, rtt, mode)
    network, loop, plan = session.network, session.loop, session.plan
    address_of = {vm.runtime.site_no: site_address(vm.runtime.site_no) for vm in session.vms}
    all_sites = sorted(address_of)

    schedule.apply_link_faults(network, address_of, all_sites)

    vm_of: Dict[int, DistributedVM] = {
        vm.runtime.site_no: vm for vm in session.vms
    }
    resumed_vms: List[DistributedVM] = []
    buf = config.buf_frame
    # Bounded-memory budget: the lockstep gate allows O(buf) of lead (see
    # _evaluate); digest retention legitimately holds the prune floor back
    # to the last agreed frame (≤ interval behind, plus the digest's own
    # round trip), and rollback retains its speculation window on top.
    interval = config.state_digest_interval or 0
    ibuf_bound = 3 * buf + 3 + (2 * interval if interval else 0)
    if mode == "rollback":
        ibuf_bound += SPECULATION_WINDOW + 2 * buf + 10
    #: Highest observed per-site input-buffer size (bounded-memory check),
    #: sampled every 100 ms of simulated time.
    ibuf_high_water: Dict[int, int] = {s: 0 for s in all_sites}

    def sample_ibuf() -> None:
        for vm in list(vm_of.values()) + list(resumed_vms):
            site = vm.runtime.site_no
            size = len(vm.runtime.lockstep.ibuf)
            if size > ibuf_high_water.get(site, 0):
                ibuf_high_water[site] = size
        if loop.clock.now() < horizon - 0.2:
            loop.call_later(0.1, sample_ibuf)

    loop.call_later(0.1, sample_ibuf)

    for crash in schedule.crashes:
        donor = next(s for s in all_sites if s != crash.site)

        def do_crash(crash=crash, donor=donor) -> None:
            victim = vm_of[crash.site]
            cookie = victim.runtime.lockstep.last_ack_frame[donor]
            victim.process.kill()
            network.drop_socket(address_of[crash.site])
            if crash.restart_at is not None:
                loop.call_at(
                    crash.restart_at,
                    lambda: do_restart(crash.site, donor, cookie),
                )

        def do_restart(site: int, donor: int, cookie: int) -> None:
            engine = plan.build_engine(
                site,
                [SitePeer(s, address_of[s]) for s in all_sites],
                machine=create_game(game),
                donor_site=donor,
                last_acked_frame=cookie,
            )
            vm = DistributedVM(loop, network, engine)
            network.log_fault("restart", address=address_of[site])
            resumed_vms.append(vm)
            vm.start()

        loop.call_at(crash.at, do_crash)

    for poke in schedule.pokes:

        def do_poke(poke=poke) -> None:
            vm = vm_of.get(poke.site)
            if vm is None:
                return
            # In rollback mode runtime.machine is the confirmed shadow —
            # the timeline the digests sample — so the poke is detectable
            # there exactly as in lockstep.
            _poke_machine(vm.runtime.machine, poke.address, poke.mask)
            network.log_fault(
                "poke", site=poke.site, address=poke.address, mask=poke.mask
            )

        loop.call_at(poke.at, do_poke)

    for vm in session.vms:
        vm.start()
    loop.run(until=horizon)

    crashed_sites = {c.site for c in schedule.crashes}
    outcomes: List[SiteOutcome] = []
    for vm in session.vms:
        site = vm.runtime.site_no
        if site in crashed_sites:
            continue  # the pre-crash incarnation has no meaningful ending
        outcomes.append(_outcome_of(vm))
    for vm in resumed_vms:
        outcomes.append(_outcome_of(vm, resumed=True))

    problems = _evaluate(
        outcomes,
        twin,
        network.fault_log,
        schedule,
        config,
        frames,
        ibuf_bound,
        ibuf_high_water,
        expect_completion,
        expected_termination,
        network.ground_truth(),
    )

    postmortems: List[str] = []
    desynced = [out for out in outcomes if out.termination == "desync"]
    if desynced and artifact_dir is not None:
        from repro.obs.postmortem import build_postmortem, write_postmortem

        os.makedirs(artifact_dir, exist_ok=True)
        survivors = [
            vm for vm in session.vms
            if vm.runtime.site_no not in crashed_sites
        ] + list(resumed_vms)
        bundle = build_postmortem(
            RuntimeError(
                "terminal desync at site(s) "
                + ", ".join(str(out.site_no) for out in desynced)
            ),
            survivors,
        )
        path = os.path.join(
            artifact_dir, f"desync-postmortem-seed{seed}.json"
        )
        postmortems.append(write_postmortem(bundle, path))

    return ChaosResult(
        outcomes=outcomes,
        twin_checksums=twin,
        fault_log=list(network.fault_log),
        ground_truth=network.ground_truth(),
        ibuf_high_water=ibuf_high_water,
        problems=problems,
        postmortems=postmortems,
    )


def _outcome_of(vm: DistributedVM, resumed: bool = False) -> SiteOutcome:
    runtime = vm.runtime
    return SiteOutcome(
        site_no=runtime.site_no,
        termination=vm.engine.termination,
        finished=vm.finished,
        first_frame=runtime.trace.first_frame,
        checksums=list(runtime.trace.checksums),
        metrics=vm.engine.snapshot(),
        trace=[record.to_row() for record in runtime.events],
        resumed=resumed,
        slo=runtime.slo.snapshot() if runtime.config.timeline else None,
    )


def _counter(out: SiteOutcome, name: str) -> int:
    """One counter value from an outcome's registry snapshot."""
    return int(out.metrics.get("counters", {}).get(name, 0))  # type: ignore[union-attr]


def _evaluate(
    outcomes: List[SiteOutcome],
    twin: List[int],
    fault_log: List[dict],
    schedule: FaultSchedule,
    config: SyncConfig,
    frames: int,
    ibuf_bound: int,
    ibuf_high_water: Dict[int, int],
    expect_completion: bool,
    expected_termination: ExpectedTermination,
    ground_truth: Dict[str, int],
) -> List[str]:
    problems: List[str] = []
    fault_times = [
        float(entry["t"])
        for entry in fault_log
        if entry["kind"] in ("link_down", "crash", "poke", "corrupt_on")
    ]
    disruptive_times = [
        float(entry["t"])
        for entry in fault_log
        if entry["kind"] in ("link_down", "crash")
    ]

    for out in outcomes:
        if isinstance(expected_termination, dict):
            want = expected_termination.get(out.site_no)
        elif expected_termination is not None:
            want = expected_termination
        elif expect_completion:
            want = None
        else:
            want = "peer-lost"
        if want is None:
            mismatch = _checksum_mismatch(out, twin)
            if mismatch:
                problems.append(mismatch)
            if not out.finished:
                problems.append(
                    f"site {out.site_no} finished only "
                    f"{out.first_frame + len(out.checksums)}/{frames} frames "
                    f"(termination={out.termination})"
                )
        else:
            if out.termination != want:
                problems.append(
                    f"site {out.site_no} terminated with "
                    f"{out.termination!r}, expected {want!r}"
                )
            # A site expected to die of desync holds divergent (or frozen
            # mid-recovery) frames by construction, so the checksum
            # comparison only applies to clean endings.
            if want == "peer-lost":
                mismatch = _checksum_mismatch(out, twin)
                if mismatch:
                    problems.append(mismatch)
        # Bounded memory: the gate stops the producer at most buf frames
        # past the delivery pointer.  The buffered window spans at most our
        # own lead (buf) plus the peer's possible lead over us (buf, since
        # its gate needs our inputs) plus the pruning floor's ack lag (a
        # few in-flight frames, < buf) — plus the digest retention and
        # speculation terms folded into ``ibuf_bound`` by the caller.  The
        # point is the bound is O(buf + digest interval + speculation
        # window), independent of how long the partition lasts.
        high = ibuf_high_water.get(out.site_no, 0)
        if high > ibuf_bound:
            problems.append(
                f"site {out.site_no} input buffer grew to {high} frames "
                f"(> {ibuf_bound}) while partitioned"
            )
        # Telemetry alignment: liveness episodes must follow real faults.
        for record in out.trace:
            if record["kind"] in ("degraded", "suspended"):
                when = float(record["t"])
                if not any(t <= when for t in fault_times):
                    problems.append(
                        f"site {out.site_no} recorded {record['kind']} at "
                        f"t={when:.3f} with no preceding fault in the log"
                    )

    # Self-healing: a memory poke in a run expected to finish must have
    # been *detected* by the digest layer and *recovered* by a completed
    # resync — finishing with matching checksums by luck is not enough.
    if schedule.pokes and expected_termination is None and expect_completion:
        detected = sum(_counter(out, "desync_detected") for out in outcomes)
        recovered = sum(_counter(out, "resync_success") for out in outcomes)
        if not detected:
            problems.append(
                "memory poke was injected but no site detected a divergence"
            )
        elif not recovered:
            problems.append(
                "divergence detected but no resync episode completed"
            )

    # Transfer integrity: a corruption window must actually have tampered
    # with at least one state-transfer datagram (otherwise the scenario
    # proved nothing), and the run's endings above prove the re-request
    # path recovered from it.
    if schedule.corruptions and int(ground_truth.get("corrupted", 0)) == 0:
        problems.append(
            "corruption window was scheduled but no datagram was corrupted"
        )

    # Fault-attributed degradation: with timeline attribution on, a link
    # fault must surface as SLO breaches, and a partition specifically
    # must be charged to the sender/network side of the pipeline (the
    # held-back inputs show up as encode/wire latency once the link
    # heals), not to some anonymous local stage.
    scored = [out for out in outcomes if out.slo is not None]
    if (
        scored
        and disruptive_times
        and expect_completion
        and expected_termination is None
    ):
        degraded = [out for out in scored if int(out.slo["breaches"]) > 0]  # type: ignore[arg-type]
        if not degraded:
            problems.append(
                "faults were injected but no site's SLO recorded a breach"
            )
        elif schedule.partitions and not any(
            out.slo.get("worst_stage") in ("encode", "wire") for out in degraded
        ):
            worst = {out.site_no: out.slo.get("worst_stage") for out in degraded}
            problems.append(
                f"partition breaches were attributed to {worst}, "
                f"expected encode/wire"
            )
    return problems


# ----------------------------------------------------------------------
# Scenario presets (shared by the CLI and the pytest fault matrix)
# ----------------------------------------------------------------------
def partition_heal_schedule(
    start: float = 2.0, duration: float = 2.0
) -> FaultSchedule:
    from repro.net.faults import Partition

    return FaultSchedule(
        partitions=[Partition(start, start + duration, (0,), (1,))]
    )


def crash_resume_schedule(
    at: float = 2.0, downtime: float = 1.5, site: int = 1
) -> FaultSchedule:
    from repro.net.faults import Crash

    return FaultSchedule(crashes=[Crash(at, site, restart_at=at + downtime)])


def abandonment_schedule(at: float = 2.0, site: int = 1) -> FaultSchedule:
    from repro.net.faults import Crash

    return FaultSchedule(crashes=[Crash(at, site, restart_at=None)])


def divergence_schedule(at: float = 2.0, site: int = 1) -> FaultSchedule:
    """Silently corrupt one site's live state; digests must catch it."""
    from repro.net.faults import MemoryPoke

    return FaultSchedule(pokes=[MemoryPoke(at, site)])


def flap_schedule(
    first: float = 1.5, spacing: float = 1.5, count: int = 4, site: int = 1
) -> FaultSchedule:
    """Repeatedly re-corrupt the same site until the quarantine trips."""
    from repro.net.faults import MemoryPoke

    return FaultSchedule(
        pokes=[MemoryPoke(first + i * spacing, site) for i in range(count)]
    )


def transfer_corruption_schedule(
    at: float = 2.0,
    downtime: float = 1.5,
    site: int = 1,
    donor: int = 0,
    window: float = 1.0,
) -> FaultSchedule:
    """Crash/restart with every resume snapshot bit-flipped for a while.

    The restarted site must CRC-reject each corrupted snapshot and keep
    re-requesting until the window closes and a clean copy lands.
    """
    from repro.net.faults import Corruption, Crash

    restart = at + downtime
    return FaultSchedule(
        crashes=[Crash(at, site, restart_at=restart)],
        corruptions=[Corruption(restart, restart + window, donor, site)],
    )


def resync_partition_schedule(
    poke_at: float = 2.0, partition_at: float = 2.08, site: int = 1
) -> FaultSchedule:
    """Poke one site, then partition mid-resync: the episode cannot
    complete, so the deadline must escalate to a terminal desync.

    ``partition_at`` is tuned to land inside the episode — after the
    divergent slave's RESUME request goes out (detection is one digest
    window plus a flush behind the poke) but before the authority's
    snapshot arrives, so the slave starves waiting for it."""
    from repro.net.faults import MemoryPoke, Partition

    return FaultSchedule(
        pokes=[MemoryPoke(poke_at, site)],
        partitions=[Partition(partition_at, 1e9, (0,), (1,))],
    )
