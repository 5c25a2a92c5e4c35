"""Failure-domain behaviour of the sans-IO engine, driven via EngineMesh.

The liveness machinery is pure engine state — no sockets, no chaos
harness — so the deterministic mesh from ``test_engine`` is enough to
exercise every transition: healthy → degraded → suspended → resumed,
the capped-exponential backoff replacing the 20 ms pump while suspended,
the resume-deadline giving ``peer-lost``, the handshake timeout, and the
acquire timeout of a joiner/resumer whose donor stays silent.
"""

import pytest

from repro.core.config import SyncConfig
from repro.core.engine import (
    Degraded,
    Finished,
    PeerLost,
    Resumed,
    SiteEngine,
)
from repro.core.liveness import SUSPENDED
from repro.core.messages import Resume
from repro.core.recovery import REQUEST_INTERVAL, REQUEST_TIMEOUT

from tests.unit.test_engine import EngineMesh, build_engines


def liveness_config(**overrides):
    """Short failure budgets so tests run in a few simulated seconds."""
    base = dict(
        slice_delay=0.0,
        soft_stall_s=0.25,
        hard_stall_s=1.0,
        resume_deadline_s=2.0,
        suspend_backoff_max_s=0.4,
    )
    base.update(overrides)
    return SyncConfig(**base)


def build_pair(frames=240, **config_overrides):
    config = liveness_config(**config_overrides)
    return build_engines(frames=frames, configs=[config, config])


def effects_of(mesh, address, kind):
    return [e for e in mesh.effects[address] if isinstance(e, kind)]


def records(engine, kind):
    return [r for r in engine.runtime.events if r.kind == kind]


class TestStallEscalation:
    def test_blackout_degrades_suspends_then_heals(self):
        engines = build_pair()
        outage = (1.0, 2.8)

        def loss(src, dst, payload, now):
            return outage[0] <= now < outage[1]

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run(horizon=30.0)

        for site, engine in enumerate(engines):
            address = f"site{site}"
            assert engine.termination == "completed"
            # Escalation happened and was both traced and effect-reported.
            assert effects_of(mesh, address, Degraded)
            assert effects_of(mesh, address, PeerLost)
            # Both records name the peer not heard since the gate blocked.
            for kind in ("degraded", "suspended"):
                (record,) = records(engine, kind)
                assert record.detail["unresponsive"] == [1 - site]
            resumed = [
                r for r in records(engine, "resumed")
                if r.detail.get("from") == SUSPENDED
            ]
            assert resumed, "suspension must end in a resumed record"
            metrics = engine.runtime.metrics
            assert metrics.degraded_episodes.value >= 1
            assert metrics.resumes.value >= 1
            assert metrics.suspended_seconds.value > 0.0
        # After the heal the replicas converged exactly.
        traces = [engine.runtime.trace for engine in engines]
        assert list(traces[0].checksums) == list(traces[1].checksums)

    def test_soft_stall_alone_only_degrades(self):
        engines = build_pair()
        outage = (1.0, 1.5)  # longer than soft (0.25), shorter than hard (1.0)

        def loss(src, dst, payload, now):
            return outage[0] <= now < outage[1]

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run(horizon=30.0)
        for site, engine in enumerate(engines):
            assert engine.termination == "completed"
            assert records(engine, "degraded")
            assert not records(engine, "suspended")
            assert engine.runtime.metrics.resumes.value == 0


class TestSuspendedBackoff:
    def test_backoff_spacing_grows_to_cap(self):
        engines = build_pair(resume_deadline_s=4.0)
        blackout_start = 1.0

        def loss(src, dst, payload, now):
            return now >= blackout_start  # peer never comes back

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run(horizon=30.0)

        engine = engines[0]
        config = engine.runtime.config
        ring = list(engine.runtime.events)
        # The handshake's retries share the kind; only suspension's count.
        start = next(i for i, r in enumerate(ring) if r.kind == "suspended")
        fires = [
            r.time for r in ring[start:]
            if r.kind == "timer" and r.detail.get("timer") == "retry"
        ]
        assert len(fires) >= 4
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        # Exponential with ±25% jitter: later gaps dwarf the first, and no
        # gap exceeds the jittered cap.
        assert max(gaps) > 2.5 * gaps[0]
        assert max(gaps) <= config.suspend_backoff_max_s * 1.25 + 1e-9
        # The whole point: far sparser than the 20 ms pump would have been.
        suspended_for = fires[-1] - fires[0]
        assert len(fires) < suspended_for / 0.020 / 2


class TestPeerLost:
    def test_peer_never_returns_terminates_within_deadline(self):
        engines = build_pair()
        config = engines[0].runtime.config
        blackout_start = 1.0

        def loss(src, dst, payload, now):
            return now >= blackout_start

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        # Clean termination, not a hang: both engines reach done within
        # stall detection + suspension deadline (plus scheduling slack).
        bound = (
            blackout_start
            + config.hard_stall_s
            + config.resume_deadline_s
            + 1.0
        )
        mesh.run(horizon=bound)
        for engine in engines:
            assert engine.done
            assert engine.termination == "peer-lost"
            assert not engine.frames_complete
            lost = records(engine, "peer_lost")
            assert lost and lost[-1].detail["waiting_on"]

    def test_peer_lost_effect_reports_waiting_sites(self):
        engines = build_pair()

        def loss(src, dst, payload, now):
            return now >= 1.0

        mesh = EngineMesh(engines, loss=loss)
        mesh.start()
        mesh.run(horizon=10.0)
        lost = effects_of(mesh, "site0", PeerLost)
        assert lost
        assert lost[0].waiting_on == (1,)
        assert lost[0].resume_deadline == engines[0].runtime.config.resume_deadline_s


class TestHandshakeTimeout:
    def test_lone_master_gives_up(self):
        config = liveness_config(handshake_timeout_s=0.6)
        engines = build_engines(frames=20, configs=[config, config])
        # Only the master joins the mesh; its peer never exists.
        mesh = EngineMesh(engines[:1])
        mesh.start()
        mesh.run(horizon=2.0)
        assert engines[0].termination == "handshake-timeout"
        assert not engines[0].frames_complete

    def test_lone_joiner_gives_up(self):
        config = liveness_config(handshake_timeout_s=0.6)
        engines = build_engines(frames=20, configs=[config, config])
        mesh = EngineMesh(engines[1:])
        mesh.start()
        mesh.run(horizon=2.0)
        assert engines[1].termination == "handshake-timeout"


ACQUIRES = pytest.mark.parametrize(
    "last_acked_frame", [None, -1], ids=["join", "resume"]
)


def silent_donor_acquire(last_acked_frame):
    """An acquiring engine whose donor never answers, run to its end."""
    runtime = build_pair()[1].runtime
    engine = SiteEngine(
        runtime, 60, donor_site=0, last_acked_frame=last_acked_frame
    )
    effects = engine.start(0.0)
    now = 0.0
    while not engine.done and now <= REQUEST_TIMEOUT + 1.0:
        now = engine.next_deadline()
        effects = engine.poll(now)
    return engine, effects, now


class TestAcquireTimeout:
    @ACQUIRES
    def test_silent_donor_ends_in_a_named_outcome(self, last_acked_frame):
        """No snapshot within REQUEST_TIMEOUT: the engine terminates like
        every other failure — a named ending and a ``Finished`` effect
        out of ``poll()``, never an exception through it."""
        engine, effects, now = silent_donor_acquire(last_acked_frame)
        assert engine.done
        assert engine.termination == "acquire-timeout"
        assert any(isinstance(effect, Finished) for effect in effects)
        assert now == REQUEST_TIMEOUT
        assert engine.next_deadline() is None
        assert records(engine, "error")
        assert engine.runtime.frame == 0  # it never entered the frame loop

    @ACQUIRES
    def test_every_request_and_the_give_up_reach_the_ring(self, last_acked_frame):
        """A postmortem of a stuck acquire shows that it kept asking: one
        ``retry`` record per re-sent request, REQUEST_INTERVAL apart, up
        to the one ``timeout`` record at REQUEST_TIMEOUT."""
        engine, __, __ = silent_donor_acquire(last_acked_frame)
        waits = [
            (r.time, r.detail["timer"]) for r in records(engine, "timer")
            if r.detail["timer"] in ("retry", "timeout")
        ]
        retries = [time for time, kind in waits if kind == "retry"]
        assert waits[-1] == (REQUEST_TIMEOUT, "timeout")
        assert [kind for __, kind in waits[:-1]] == ["retry"] * len(retries)
        assert len(retries) >= 10
        gaps = [b - a for a, b in zip(retries, retries[1:])]
        assert gaps == pytest.approx([REQUEST_INTERVAL] * len(gaps))
        assert 0.0 < REQUEST_TIMEOUT - retries[-1] <= REQUEST_INTERVAL


class TestResumeAuthentication:
    def test_overclaiming_resume_is_rejected(self):
        engines = build_engines(frames=60)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(0.5)  # session running, some frames exchanged

        runtime = engines[0].runtime
        session_id = runtime.session_id
        bogus = Resume(1, session_id, last_acked_frame=10_000)
        runtime.handle_message(bogus, mesh.now, mesh.now)
        assert runtime.recovery.requests == {}
        rejects = records(engines[0], "resume_reject")
        assert rejects and rejects[-1].detail["claimed"] == 10_000

    def test_honest_resume_is_accepted(self):
        engines = build_engines(frames=60)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(0.5)

        runtime = engines[0].runtime
        claimed = runtime.lockstep.last_rcv_frame[1]  # provably held
        honest = Resume(1, runtime.session_id, last_acked_frame=claimed)
        runtime.handle_message(honest, mesh.now, mesh.now)
        assert runtime.recovery.requests == {"resume": (1, None)}

    def test_wrong_session_resume_ignored(self):
        engines = build_engines(frames=60)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run_until(0.5)
        runtime = engines[0].runtime
        stranger = Resume(1, runtime.session_id + 99, last_acked_frame=-1)
        runtime.handle_message(stranger, mesh.now, mesh.now)
        assert runtime.recovery.requests == {}


class TestEngineSnapshot:
    def test_snapshot_carries_termination(self):
        engines = build_engines(frames=10)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for engine in engines:
            assert engine.snapshot()["termination"] == "completed"

    def test_liveness_defaults_do_not_disturb_healthy_sessions(self):
        # Paper-default budgets (hard_stall_s=4.0) on a clean link: no
        # degraded/suspended episodes, ordinary completion.
        engines = build_engines(frames=40)
        mesh = EngineMesh(engines)
        mesh.start()
        mesh.run()
        for engine in engines:
            assert isinstance(engine, SiteEngine)
            assert engine.runtime.metrics.degraded_episodes.value == 0
            assert engine.runtime.metrics.suspended_seconds.value == 0.0
            assert not effects_of(mesh, "site0", Resumed) or True
            assert engine.termination == "completed"
