"""Integration: telemetry against ground truth, postmortems, crash isolation.

The observability layer's acceptance bar: under injected loss the
protocol's own counters must agree exactly with the network simulator's
packet-fate log; the metric catalog must be fully present and monotone in
the Prometheus exposition; a forced divergence must yield a postmortem
bundle carrying both sites' context; and one crashed aio session must be
visible through the snapshot API without taking its host down.
"""

import json

import pytest

from repro.core.aio import AioSessionSpec, SessionHost, run_sessions
from repro.core.config import SyncConfig
from repro.core.engine import Present
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import (
    SessionPlan,
    build_session,
    site_address,
    two_player_plan,
)
from repro.core.policy import build_adaptive_session
from repro.core.rollback import build_rollback_session
from repro.emulator.games.counter import NondeterministicMachine
from repro.emulator.machine import create_game
from repro.net.netem import NetemConfig, named_profile
from repro.obs.catalog import check_exposition, run_catalog_check
from repro.obs.postmortem import (
    DesyncError,
    DesyncPostmortem,
    verify_with_postmortem,
)


def run_lossy(loss=0.08, duplicate=0.05, frames=240, seed=11):
    plan = two_player_plan(
        SyncConfig.paper_defaults(),
        machine_factory=lambda: create_game("counter"),
        sources=[
            PadSource(RandomSource(seed), player=0),
            PadSource(RandomSource(seed + 1), player=1),
        ],
        max_frames=frames,
        seed=seed,
    )
    session = build_session(
        plan, NetemConfig(delay=0.02, loss=loss, duplicate=duplicate)
    )
    session.run(horizon=900.0)
    return session


class TestGroundTruthAgreement:
    """Satellite (c): counters vs the simulator's packet-fate log."""

    def test_counters_match_simulator_ground_truth(self):
        session = run_lossy()
        truth = session.network.ground_truth()
        assert truth["dropped"] > 0
        assert truth["duplicated"] > 0
        # Conservation: every sent datagram was dropped or delivered (and
        # wire-level duplicates delivered again).
        assert (
            truth["delivered"]
            == truth["sent"] - truth["dropped"] + truth["duplicated"]
        )
        for vm in session.vms:
            addr = site_address(vm.runtime.site_no)
            counters = vm.snapshot()["counters"]
            # Every Send effect went through the simulated network exactly
            # once, so the engine's own count equals the truth log's.
            assert (
                counters["datagrams_sent"]
                == session.network.ground_truth(source=addr)["sent"]
            )
            # Every delivery either reached the engine or is still sitting
            # undrained in the mailbox (the site finished before late
            # retransmissions arrived).
            undrained = len(vm.socket.receive_all())
            assert (
                counters["datagrams_received"] + undrained
                == session.network.ground_truth(destination=addr)["delivered"]
            )
            # The fate log counts *datagrams*; with the v2 send path one
            # datagram may be a coalesced Batch of several messages, so
            # sync_sent can exceed the datagram count without breaking the
            # conservation above.  The coalescing itself must be visible.
            assert counters["net_batch_coalesced"] > 0
            # Engine-path wire bytes (outbox) are a subset of all Send
            # bytes — the time-server report rides outside the protocol.
            assert 0 < counters["net_bytes_tx"] <= counters["bytes_sent"]

    def test_loss_surfaces_in_protocol_counters(self):
        # The v2 send path coalesces sync windows into fewer datagrams, so
        # 8% loss rides out inside the BufFrame slack without a single
        # stall; 20% reliably punches through it.
        session = run_lossy(loss=0.20)
        merged = {}
        for vm in session.vms:
            for name, value in vm.snapshot()["counters"].items():
                merged[name] = merged.get(name, 0) + value
        # Dropped sync windows force retransmissions; wire duplicates and
        # overlapping retransmitted windows surface as duplicate inputs.
        assert merged["retransmitted_inputs"] > 0
        assert merged["duplicate_inputs"] > 0
        assert merged["stalls"] > 0
        hist = vm.snapshot()["histograms"]["sync_stall_seconds"]
        assert hist["count"] > 0

    @pytest.mark.parametrize("mode", ["lockstep", "rollback", "adaptive"])
    def test_frames_counts_each_presented_frame_once(self, mode):
        pads = [PadSource(RandomSource(40 + s, toggle_p=0.08), s) for s in (0, 1)]
        if mode == "lockstep":
            plan = two_player_plan(
                SyncConfig.paper_defaults(),
                lambda: create_game("counter"),
                pads,
                max_frames=240,
                seed=40,
            )
            session = build_session(plan, NetemConfig.for_rtt(0.040))
        else:
            build = {
                "rollback": build_rollback_session,
                "adaptive": build_adaptive_session,
            }[mode]
            session = build(
                lambda: create_game("counter"),
                pads,
                named_profile("mobile-burst", rtt=0.240),
                frames=240,
                seed=40,
            )
        presented = []
        for vm in session.vms:
            seen = [0]
            absorb = vm.status.absorb

            def count(effect, absorb=absorb, seen=seen):
                seen[0] += type(effect) is Present
                absorb(effect)

            vm.status.absorb = count
            presented.append(seen)
        session.run()
        for vm, seen in zip(session.vms, presented):
            assert seen[0] == 240
            assert vm.engine.snapshot()["counters"]["frames"] == seen[0]

    def test_clean_session_has_no_loss_artifacts(self):
        session = run_lossy(loss=0.0, duplicate=0.0)
        truth = session.network.ground_truth()
        assert truth["dropped"] == 0 and truth["duplicated"] == 0
        for vm in session.vms:
            assert vm.snapshot()["counters"]["out_of_window_inputs"] == 0


class TestCatalogCheck:
    """Satellite (e): the exposition gate CI runs."""

    def test_lossy_session_passes_the_catalog_check(self):
        problems, info = run_catalog_check(frames=120)
        assert problems == []
        assert info["ground_truth"]["dropped"] > 0

    def test_clamped_corrections_mirror_the_slaves_pacer(self):
        """A slave that starts 100 ms late corrects at the ±3-frame clamp
        for a few frames; the master never corrects."""
        plan = two_player_plan(
            SyncConfig.paper_defaults(),
            machine_factory=lambda: create_game("counter"),
            sources=[PadSource(RandomSource(s), player=s) for s in (0, 1)],
            max_frames=120,
            seed=3,
            frame_loop_delays=[0.0, 0.100],
        )
        session = build_session(plan, NetemConfig.for_rtt(0.040))
        session.run(horizon=60.0)
        clamped = [
            vm.snapshot()["counters"]["pacer_sync_adjust_clamped"]
            for vm in session.vms
        ]
        assert clamped[0] == 0 < clamped[1]
        assert clamped[1] == session.vms[1].runtime.pacer.stats.sync_adjust_clamped

    def test_missing_metric_is_reported(self):
        problems, info = run_catalog_check(frames=60, loss=0.0)
        text = info["second_scrape"]
        broken = "\n".join(
            line
            for line in text.splitlines()
            if "repro_frames_total" not in line
        )
        assert any("repro_frames_total" in p for p in check_exposition(broken))


class TestDesyncPostmortem:
    def make_divergent_session(self):
        seed = 5
        plan = SessionPlan(
            config=SyncConfig.paper_defaults(),
            assignment=InputAssignment.standard(2),
            machines=[NondeterministicMachine(), NondeterministicMachine()],
            sources=[
                PadSource(RandomSource(seed), player=0),
                PadSource(RandomSource(seed + 1), player=1),
            ],
            max_frames=120,
            seed=seed,
        )
        session = build_session(plan, NetemConfig(delay=0.02))
        session.run(horizon=900.0)
        return session

    def test_divergence_produces_a_bundle(self, tmp_path):
        session = self.make_divergent_session()
        artifact = tmp_path / "postmortem.json"
        with pytest.raises(DesyncError) as excinfo:
            verify_with_postmortem(
                session.vms, artifact_path=str(artifact), last_n=None
            )
        error = excinfo.value
        bundle = error.postmortem
        assert error.artifact == str(artifact)
        assert bundle.divergence_frame is not None
        assert len(bundle.sites) == 2
        for entry in bundle.sites:
            # Registry snapshot, frame rows and protocol records all there.
            assert entry["registry"]["counters"]["frames"] > 0
            assert entry["frame_rows"], "frame rows missing"
            assert entry["trace_records"], "trace records missing"
            # The first mismatching frame's evidence is pinned per site.
            assert entry["offending"]["frame"] == bundle.divergence_frame
        checksums = {e["offending"]["checksum"] for e in bundle.sites}
        assert len(checksums) == 2, "offending checksums should differ"

    def test_bundle_round_trips_through_json(self, tmp_path):
        session = self.make_divergent_session()
        artifact = tmp_path / "postmortem.json"
        with pytest.raises(DesyncError):
            verify_with_postmortem(session.vms, artifact_path=str(artifact))
        loaded = DesyncPostmortem.load(str(artifact))
        with open(artifact) as handle:
            raw = json.load(handle)
        assert raw["kind"] == "desync-postmortem"
        assert loaded.divergence_frame == raw["divergence_frame"]
        assert loaded.frame_rows(0) and loaded.frame_rows(1)

    def test_clean_session_verifies_without_bundle(self, tmp_path):
        session = run_lossy(loss=0.0, duplicate=0.0, frames=60)
        artifact = tmp_path / "postmortem.json"
        verified = verify_with_postmortem(
            session.vms, artifact_path=str(artifact)
        )
        assert verified == 60
        assert not artifact.exists()


class ExplodingMachine:
    """Delegates to a real game but raises at a chosen frame."""

    def __init__(self, inner, at_frame):
        self._inner = inner
        self._at_frame = at_frame

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def step(self, input_word):
        if self._inner.frame >= self._at_frame:
            raise RuntimeError("injected machine fault")
        return self._inner.step(input_word)


class TestAioCrashIsolation:
    """Satellite (f): one crashed session never takes the host down."""

    def make_specs(self, count=3, frames=40):
        config = SyncConfig(cfps=120, buf_frame=6)
        return [
            AioSessionSpec(
                game="counter",
                frames=frames,
                seed=200 + index,
                config=config,
                session_id=index + 1,
                linger=0.5,
            )
            for index in range(count)
        ]

    def test_crashed_session_is_isolated_and_visible(self):
        specs = self.make_specs()
        built = {"n": 0}

        def factory(game):
            built["n"] += 1
            machine = create_game(game)
            # The first two machines belong to session 1; blow up site 0.
            if built["n"] == 1:
                return ExplodingMachine(machine, at_frame=5)
            return machine

        host = SessionHost()
        groups = run_sessions(
            specs, raise_errors=False, session_host=host, machine_factory=factory
        )
        errors = host.errors()
        assert len(errors) == 1
        assert "injected machine fault" in str(errors[0])
        # The other sessions ran to completion despite the crash.
        for runtimes in groups[1:]:
            checksums = [list(rt.trace.checksums) for rt in runtimes]
            assert all(len(c) == specs[0].frames for c in checksums)
            assert checksums[0] == checksums[1]
        # The snapshot API pinpoints the failed site without the host dying.
        snap = host.snapshot()
        errored = [
            site
            for group in snap["sessions"]
            for site in group["sites"]
            if site["error"] is not None
        ]
        assert len(errored) == 1
        assert errored[0]["finished"] is False
        # The crash's trace record names its reason under ``error``, the
        # key every rejection and give-up record uses.
        crashed = [
            record.detail
            for site in host.sites
            if site.error is not None
            for record in site.runtime.events
            if record.kind == "error"
        ]
        assert crashed == [{"error": "injected machine fault"}]
        healthy = [
            site
            for group in snap["sessions"]
            for site in group["sites"]
            if site["error"] is None and site["finished"]
        ]
        assert len(healthy) >= 4
        assert snap["aggregate"]["counters"]["frames"] > 0

    def test_raise_errors_resurfaces_after_settling(self):
        specs = self.make_specs(count=2)

        def factory(game):
            machine = create_game(game)
            if not hasattr(factory, "armed"):
                factory.armed = True
                return ExplodingMachine(machine, at_frame=3)
            return machine

        with pytest.raises(RuntimeError, match="injected machine fault"):
            run_sessions(specs, machine_factory=factory)


class TestHostIntrospection:
    """Acceptance: JSON + Prometheus for eight concurrent aio sessions."""

    def test_eight_sessions_expose_full_catalog(self):
        config = SyncConfig(cfps=120, buf_frame=6)
        specs = [
            AioSessionSpec(
                game="counter",
                frames=30,
                seed=300 + index,
                config=config,
                session_id=index + 1,
                linger=0.5,
            )
            for index in range(8)
        ]
        host = SessionHost()
        run_sessions(specs, session_host=host)
        snap = host.snapshot()
        assert len(snap["sessions"]) == 8
        assert all(len(group["sites"]) == 2 for group in snap["sessions"])
        json.dumps(snap)  # JSON-serializable end to end
        text = host.prometheus()
        assert check_exposition(text) == []
        # Sixteen labelled series per counter metric: 8 sessions x 2 sites.
        assert text.count("repro_frames_total{") == 16
