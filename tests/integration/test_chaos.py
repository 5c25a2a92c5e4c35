"""The scripted chaos fault matrix (ISSUE acceptance scenarios).

Each test runs a full two-site simulated session under a
:class:`~repro.net.faults.FaultSchedule` via :func:`repro.harness.chaos.run_chaos`,
which also runs an unimpaired *twin* of the same session and compares
per-frame checksums.  ``result.passed`` already folds in the harness's
invariants (twin equality, bounded input-buffer memory, clean termination,
telemetry/ground-truth alignment); the tests below additionally pin the
specific facts each scenario is about.
"""

import pytest

from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.emulator.machine import create_game
from repro.harness.chaos import (
    abandonment_schedule,
    chaos_config,
    crash_resume_schedule,
    partition_heal_schedule,
    run_chaos,
)
from repro.net.faults import Crash, FaultSchedule, OneWayLinkDown, Partition
from repro.net.netem import NetemConfig


class TestPartitionHeal:
    def test_two_second_partition_heals_without_desync(self):
        result = run_chaos(partition_heal_schedule(start=2.0, duration=2.0))
        assert result.passed, result.problems
        for out in result.outcomes:
            assert out.finished
            assert out.termination == "completed"
            # The partition outlives hard_stall_s, so both sites must have
            # suspended and then recovered purely from sync retransmission
            # (no RESUME handshake involved in a partition heal).  The
            # cumulative counters see this even after the bounded trace
            # ring has rotated the episode's records out.
            counters = out.metrics["counters"]
            assert counters["degraded_episodes"] >= 1
            assert counters["suspended_seconds"] > 0.0
            assert counters["resumes"] >= 1
            assert not any(r["kind"] == "peer_lost" for r in out.trace)

    def test_fault_log_records_partition_and_heal(self):
        result = run_chaos(partition_heal_schedule(start=2.0, duration=2.0))
        kinds = [e["kind"] for e in result.fault_log]
        assert kinds.count("link_down") == 2  # both directions cut
        assert kinds.count("link_up") == 2  # both healed
        downs = [e["t"] for e in result.fault_log if e["kind"] == "link_down"]
        ups = [e["t"] for e in result.fault_log if e["kind"] == "link_up"]
        assert all(abs(t - 2.0) < 1e-9 for t in downs)
        assert all(abs(t - 4.0) < 1e-9 for t in ups)

    def test_ground_truth_conservation_law(self):
        result = run_chaos(partition_heal_schedule(start=2.0, duration=2.0))
        truth = result.ground_truth
        assert truth["sent"] > 0
        assert truth["dropped"] > 0  # the partition blackholed real traffic
        assert truth["delivered"] == (
            truth["sent"]
            - truth["dropped"]
            + truth["duplicated"]
            - truth.get("undeliverable", 0)
        )

    def test_input_buffers_stay_bounded_in_long_partition(self):
        # A partition several times hard_stall_s: memory must not track
        # partition length (the gate stops the producer).
        config = chaos_config()
        result = run_chaos(
            partition_heal_schedule(start=2.0, duration=5.5),
            config=config,
            frames=300,
        )
        assert result.passed, result.problems
        bound = 3 * config.buf_frame + 3
        for site, high in result.ibuf_high_water.items():
            assert 0 < high <= bound, (site, high)
        # The heal must not depend on which side of ``resume_deadline_s``
        # one jittered probe lands (a 6.0 s partition resumed after 4.97 of
        # the 5.0 s): keep a margin, so this stays a test of the buffers.
        for out in result.outcomes:
            suspended = out.metrics["counters"]["suspended_seconds"]
            assert 0.0 < suspended <= config.resume_deadline_s - 0.25


class TestCrashResume:
    def test_resumed_site_checksums_match_uninterrupted_twin(self):
        result = run_chaos(crash_resume_schedule(at=2.0, downtime=1.5, site=1))
        assert result.passed, result.problems
        survivor = result.outcome(0)
        resumed = result.outcome(1, resumed=True)
        assert survivor.finished and resumed.finished
        # The resumed incarnation re-entered mid-session...
        assert resumed.first_frame > 0
        # ...and every checksum from there on equals the twin's (the
        # replayed input backlog was bit-identical).
        offset = resumed.first_frame
        for index, checksum in enumerate(resumed.checksums):
            assert checksum == result.twin_checksums[offset + index]
        assert resumed.metrics["counters"]["resumes"] >= 1

    def test_donor_suspends_then_serves_resume(self):
        result = run_chaos(crash_resume_schedule(at=2.0, downtime=1.5, site=1))
        survivor = result.outcome(0)
        counters = survivor.metrics["counters"]
        assert counters["suspended_seconds"] > 0.0
        assert counters["resumes"] >= 1
        assert counters["state_serves"] >= 1  # the RESUME was answered

    def test_crash_is_in_the_fault_log(self):
        result = run_chaos(crash_resume_schedule(at=2.0, downtime=1.5, site=1))
        crashes = [e for e in result.fault_log if e["kind"] == "crash"]
        restarts = [e for e in result.fault_log if e["kind"] == "restart"]
        assert len(crashes) == 1 and abs(crashes[0]["t"] - 2.0) < 1e-9
        assert len(restarts) == 1 and abs(restarts[0]["t"] - 3.5) < 1e-9


class TestAbandonment:
    def test_survivor_terminates_peer_lost_within_budget(self):
        config = chaos_config()
        result = run_chaos(
            abandonment_schedule(at=2.0, site=1),
            config=config,
            expect_completion=False,
        )
        assert result.passed, result.problems
        survivor = result.outcome(0)
        assert survivor.termination == "peer-lost"
        assert not survivor.finished
        lost = [r for r in survivor.trace if r["kind"] == "peer_lost"]
        assert lost
        # Clean termination within stall detection + resume deadline, with
        # slack for the gate poll and frame timing.
        bound = 2.0 + config.hard_stall_s + config.resume_deadline_s + 1.0
        assert lost[-1]["t"] <= bound
        assert 1 in lost[-1]["waiting_on"]


class TestSlowPeer:
    def test_a_peer_still_talking_climbs_the_ladder(self):
        """The ladder runs on gate-stall time alone: a peer whose one frame
        computes for 1.6 s keeps flushing (acks, pongs) and still degrades
        and suspends the other site — whose records name no silent peer."""
        plan = two_player_plan(
            chaos_config(timeline=False),
            machine_factory=lambda: create_game("counter"),
            sources=[PadSource(RandomSource(7 + s), s) for s in (0, 1)],
            game_id="counter",
            max_frames=300,
            seed=7,
        )
        session = build_session(plan, NetemConfig.for_rtt(0.040))
        slow = session.vms[1].engine

        def compute_for(seconds):
            slow.frame_compute_time = seconds

        session.loop.call_at(2.0, lambda: compute_for(1.6))
        session.loop.call_at(2.05, lambda: compute_for(0.0))
        session.run()
        events = list(session.vms[0].runtime.events)
        heard = [
            r for r in events
            if r.kind == "rx" and r.detail["peer"] == 1 and 2.0 <= r.time < 4.0
        ]
        assert len(heard) == 46
        for kind, at in (("degraded", 2.368), ("suspended", 3.117)):
            (record,) = [r for r in events if r.kind == kind]
            assert record.time == pytest.approx(at, abs=5e-4)
            assert record.detail["waiting_on"] == [1]
            assert record.detail["unresponsive"] == []
        assert session.vms[0].engine.termination == "completed"


class TestScriptedSchedules:
    def test_one_way_link_death_heals_without_desync(self):
        schedule = FaultSchedule(
            one_way=[OneWayLinkDown(start=2.0, src=1, dst=0, end=4.0)]
        )
        result = run_chaos(schedule)
        assert result.passed, result.problems
        # Only one direction died; the victim is the site that stopped
        # hearing its peer.
        survivor = result.outcome(0)
        assert survivor.metrics["counters"]["degraded_episodes"] >= 1

    def test_combined_schedule_applies_in_order(self):
        schedule = FaultSchedule(
            partitions=[Partition(2.0, 3.0, (0,), (1,))],
            crashes=[Crash(6.0, 1, restart_at=7.0)],
        )
        # Enough frames that the session is still mid-run at the crash
        # (the partition stall already pushes the timeline out by ~1 s).
        result = run_chaos(schedule, frames=600)
        assert result.passed, result.problems
        times = [e["t"] for e in result.fault_log]
        assert times == sorted(times)
        kinds = [e["kind"] for e in result.fault_log]
        assert kinds.index("link_down") < kinds.index("crash")

    def test_schedule_horizon_and_sites(self):
        schedule = FaultSchedule(
            partitions=[Partition(1.0, 2.0, (0,), (1,))],
            crashes=[Crash(5.0, 1, restart_at=8.0)],
        )
        assert schedule.horizon() == 8.0
        assert schedule.all_sites() == [0, 1]


@pytest.mark.parametrize("seed", [3, 11])
def test_fault_matrix_is_seed_independent(seed):
    result = run_chaos(
        partition_heal_schedule(start=2.0, duration=2.0), seed=seed
    )
    assert result.passed, result.problems


class TestPartitionDuringSwitch:
    """A partition landing on the lockstep→rollback switch: no site waits
    on the dead link to commit its mode, and the whole session still
    matches a never-switched twin."""

    def run_partitioned_switch(self, seed=11):
        from repro.core.inputs import PadSource, RandomSource
        from repro.core.multisite import (
            build_session,
            site_address,
            two_player_plan,
        )
        from repro.core.config import SyncConfig
        from repro.core.policy import build_adaptive_session
        from repro.emulator.machine import create_game
        from repro.net.netem import named_profile

        netem = named_profile("wan-120", rtt=0.200)

        def sources():
            return [PadSource(RandomSource(seed + s), s) for s in (0, 1)]

        # The first RTT samples land ~0.2 s in, and the link dies at
        # 0.25 s, while the sites are moving to rollback.  The 1.75 s
        # outage stays inside the liveness budget so neither site drops
        # the other.
        schedule = FaultSchedule(
            partitions=[Partition(0.25, 2.0, (0,), (1,))]
        )
        session = build_adaptive_session(
            lambda: create_game("counter"),
            sources(),
            netem,
            frames=240,
            seed=seed,
            game_id="counter",
        )
        schedule.apply_link_faults(
            session.network, {s: site_address(s) for s in (0, 1)}, [0, 1]
        )
        session.run(horizon=600.0)

        plan = two_player_plan(
            SyncConfig(),
            machine_factory=lambda: create_game("counter"),
            sources=sources(),
            game_id="counter",
            max_frames=240,
            seed=seed,
        )
        twin = build_session(plan, netem)  # same links, no partition
        twin.run(horizon=600.0)
        return session, twin

    def test_both_sites_commit_rollback_before_the_heal(self):
        """Each site commits rollback once, when its own policy decides:
        site 0 just before the link dies, site 1 inside the partition.
        Neither waits for the heal at 2.0 s."""
        session, _ = self.run_partitioned_switch()
        commits = []
        for vm in session.vms:
            assert vm.engine.consistency.window == 60
            assert vm.runtime.events.totals["switch_commit"] == 1
            commits += [r.time for r in vm.runtime.events if r.kind == "switch_commit"]
        assert len(commits) == 2
        assert commits[0] < 0.25 <= commits[1] < 2.0

    def test_no_desync_and_twin_equality_across_abort(self):
        from repro.metrics.recorder import ConsistencyChecker

        session, twin = self.run_partitioned_switch()
        traces = [vm.runtime.trace for vm in session.vms]
        assert ConsistencyChecker().verify_traces(traces) == 240
        assert (
            traces[0].checksums == twin.vms[0].runtime.trace.checksums
        )
