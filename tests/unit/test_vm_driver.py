"""The simulator driver shell and the one-pump-per-wake-up receive path.

``DistributedVM`` is two callbacks on the event loop — "my deadline came"
and "my mailbox got a datagram" — and ``feed_datagrams`` hands a whole
wake-up's batch to the engine at once.  These tests pin what the rest of
the repo relies on: event order at a tie, ``stop()``, the boot delay, a
site that raises, and ``kill()``.
"""

import pytest

from repro.core.config import SyncConfig
from repro.core.driver import feed_datagrams
from repro.core.engine import Send, SitePeer
from repro.core.inputs import PadSource, RandomSource
from repro.core.messages import Ping, Pong, decode_all
from repro.core.multisite import build_session, site_address, two_player_plan
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.harness.chaos import chaos_config
from repro.net.netem import NetemConfig
from repro.net.transport import Datagram
from repro.sim.process import ProcessCrashed

from tests.unit.test_engine import build_engines


def ping_from(site, seq):
    return Ping(sender_site=site, session_id=1, seq=seq, timestamp_us=seq).encode()


def two_site_session(frames=120, config=None, **plan_options):
    plan = two_player_plan(
        config if config is not None else SyncConfig(),
        lambda: create_game("counter"),
        [PadSource(RandomSource(40 + s), s) for s in (0, 1)],
        game_id="counter",
        max_frames=frames,
        seed=40,
        **plan_options,
    )
    return build_session(plan, NetemConfig.for_rtt(0.040), with_time_server=False)


def lone_site(start_delay=0.0):
    """Site 0 of a two-site plan on its own loop; site 1 never starts, so
    the test is the only source of datagrams."""
    session = two_site_session()
    vm = session.vms[0]
    vm.start_delay = start_delay
    return session.loop, vm


def rows_at(vm, instant):
    return [
        (row["kind"], row.get("timer") or row.get("msg"))
        for row in vm.runtime.events.rows()
        if row["t"] == instant
    ]


class TestOnePumpPerWakeup:
    def started_engine(self):
        engine = build_engines()[0]
        engine.start(0.0)
        pumps = []
        pump = engine._pump
        engine._pump = lambda now, effects: pumps.append(now) or pump(now, effects)
        return engine, pumps

    def test_batch_pumps_once_and_replies_leave_as_one_datagram(self):
        engine, pumps = self.started_engine()
        batch = [Datagram(ping_from(1, seq), "site1", 0.001) for seq in (7, 8)]
        effects = feed_datagrams(engine, batch, 0.001)
        assert pumps == [0.001]
        sends = [e for e in effects if isinstance(e, Send) and e.destination == "site1"]
        assert len(sends) == 1
        replies = decode_all(sends[0].payload)
        assert [type(m) for m in replies] == [Pong, Pong]
        assert [m.seq for m in replies] == [7, 8]
        assert engine.runtime.metrics.datagrams_received.value == 2

    def test_empty_batch_is_the_poll(self):
        engine, pumps = self.started_engine()
        deadline = engine.next_deadline()
        assert feed_datagrams(engine, [], deadline - 0.001) == []
        feed_datagrams(engine, [], deadline)
        assert pumps == [deadline - 0.001, deadline]
        assert engine.next_deadline() > deadline

    def test_handle_by_hand_still_pumps(self):
        engine, pumps = self.started_engine()
        effects = engine.poll(0.001, [Datagram(ping_from(1, 3), "site1", 0.001)])
        assert pumps == [0.001]
        sends = [e for e in effects if isinstance(e, Send) and e.destination == "site1"]
        assert [m.seq for m in decode_all(sends[0].payload)] == [3]


class TestTieAtTheDeadline:
    """A datagram due at exactly the site's timer deadline: the loop's
    insertion-order tie-break decides, as it always has."""

    def deadline_after(self, loop, vm, instant):
        vm.start()
        loop.run(until=instant)
        return vm.engine.next_deadline()

    def test_timer_armed_first_fires_first(self):
        loop, vm = lone_site()
        deadline = self.deadline_after(loop, vm, 0.3)
        # The site is parked on `deadline` already; this delivery is
        # scheduled after it, for the same instant.
        datagram = Datagram(ping_from(1, 1), "site1", deadline)
        loop.call_at(deadline, lambda: vm.socket.deliver(datagram))
        loop.run(until=deadline)
        kinds = rows_at(vm, deadline)
        assert kinds[0][0] == "timer"
        assert kinds.index(("rx", "Ping")) > 0
        assert kinds.count(("rx", "Ping")) == 1

    def test_delivery_scheduled_first_is_absorbed_first(self):
        # Learn a deadline from a twin, then schedule the delivery for it
        # before the site has parked on it.
        twin_loop, twin = lone_site()
        deadline = self.deadline_after(twin_loop, twin, 0.3)

        loop, vm = lone_site()
        datagram = Datagram(ping_from(1, 1), "site1", deadline)
        loop.call_at(deadline, lambda: vm.socket.deliver(datagram))
        vm.start()
        loop.run(until=deadline)
        kinds = rows_at(vm, deadline)
        # One wake-up, inside the delivery: the datagram is absorbed, then
        # the same pump fires the timer that came due at that instant.
        assert kinds[0] == ("rx", "Ping")
        assert "timer" in [kind for kind, __ in kinds[1:]]
        assert vm.engine.next_deadline() > deadline


class TestStopAndBootDelay:
    def test_stop_takes_effect_at_the_next_wakeup(self):
        session = two_site_session(frames=600)
        vm = session.vms[0]
        session.loop.call_at(1.0, vm.stop)
        session.vms[1].start()
        vm.start()
        session.loop.run(until=3.0)
        assert vm.engine.termination == "shutdown"
        assert vm.process.finished and vm.process.result() is None
        assert not vm.finished  # it never presented its 600 frames
        done = [
            row for row in vm.runtime.events.rows()
            if row["kind"] == "phase" and row["to"] == "done"
        ]
        # The next wake-up after t=1.0, not the one that was under way.
        assert len(done) == 1 and 1.0 <= done[0]["t"] < 1.05
        assert vm.runtime.events.rows()[-1] == done[0]

    def test_start_delay_boots_at_that_instant(self):
        loop, vm = lone_site(start_delay=2.0)
        vm.start()
        loop.run(until=1.999)
        assert len(vm.runtime.events) == 0 and vm.engine.phase == "idle"
        loop.run(until=2.5)
        first = vm.runtime.events.rows()[0]
        assert first["t"] == 2.0

    def test_datagrams_queued_during_the_delay_are_one_batch_at_boot(self):
        loop, vm = lone_site(start_delay=2.0)
        for seq in (1, 2, 3):
            datagram = Datagram(ping_from(1, seq), "site1", 0.5 * seq)
            loop.call_at(0.5 * seq, lambda d=datagram: vm.socket.deliver(d))
        sent = []
        send = vm.socket.send
        vm.socket.send = lambda payload, dest: sent.append((payload, dest)) or send(payload, dest)
        vm.start()
        loop.run(until=2.0)
        assert rows_at(vm, 2.0).count(("rx", "Ping")) == 3
        pongs = [
            [m.seq for m in decode_all(payload) if isinstance(m, Pong)]
            for payload, dest in sent
            if dest == site_address(1)
        ]
        assert [seqs for seqs in pongs if seqs] == [[1, 2, 3]]


class TestASiteThatRaises:
    def crashing_session(self):
        # Tight liveness budgets so the surviving site gives up quickly.
        session = two_site_session(
            frames=300, config=chaos_config(resume_deadline_s=1.0, timeline=False)
        )
        engine = session.vms[1].engine
        poll = engine.poll

        def poll_until_frame_50(*args):
            if engine.runtime.frame >= 50:
                raise ValueError("boom at frame 50")
            return poll(*args)

        engine.poll = poll_until_frame_50
        return session

    def test_session_run_surfaces_the_crash(self):
        session = self.crashing_session()
        with pytest.raises(ProcessCrashed, match="site1") as caught:
            session.run(horizon=60.0)
        assert isinstance(caught.value.__cause__, ValueError)
        assert "boom at frame 50" in str(caught.value.__cause__)
        crashed, survivor = session.vms[1], session.vms[0]
        assert crashed.process.finished and crashed.runtime.frame == 50
        # The other site was not left mid-callback: it ran into its own
        # named termination and the loop is free to run again.
        assert survivor.process.finished and survivor.process.result() is None
        assert survivor.engine.termination == "peer-lost"
        session.loop.run(until=61.0)

    def test_kill_makes_pending_wakeups_noops(self):
        session = two_site_session(frames=600)
        victim, peer = session.vms
        for vm in session.vms:
            vm.start()
        session.loop.run(until=1.0)
        assert 0 < victim.runtime.frame < 600
        victim.process.kill()
        frozen = (victim.runtime.frame, len(victim.runtime.events), victim.socket.stats.datagrams_sent)
        received = victim.socket.stats.datagrams_received
        session.loop.run(until=2.0)
        # Its timer came due and datagrams kept arriving; neither woke it.
        assert victim.socket.stats.datagrams_received > received
        assert frozen == (
            victim.runtime.frame,
            len(victim.runtime.events),
            victim.socket.stats.datagrams_sent,
        )
        assert victim.process.finished and victim.process.result() is None
        assert peer.runtime.frame < 600  # stalled on the dead site


def test_restarted_site_is_a_fresh_driver_on_a_fresh_socket():
    """The chaos harness's crash path: kill, drop the socket, build a new
    VM for the same address — the old shell must stay silent."""
    session = two_site_session(frames=600)
    for vm in session.vms:
        vm.start()
    session.loop.run(until=0.5)
    old = session.vms[1]
    old.process.kill()
    session.network.drop_socket(site_address(1))
    engine = session.plan.build_engine(
        1, [SitePeer(s, site_address(s)) for s in (0, 1)], machine=create_game("counter")
    )
    new = DistributedVM(session.loop, session.network, engine)
    assert new.socket is not old.socket
    new.start()
    records = len(old.runtime.events)
    session.loop.run(until=1.0)
    assert len(old.runtime.events) == records
    assert len(new.runtime.events) > 0


def test_frame_timers_fire_exactly_on_their_deadline_in_virtual_time():
    """What keeps every simulated trace bit-equal under Algorithm 3's
    carried lateness: the loop wakes a parked site at ``now == due``, so
    the lateness handed to each frame's begin is 0.0 — not merely small."""
    plan = two_player_plan(
        SyncConfig(),
        lambda: create_game("counter"),
        [PadSource(RandomSource(40 + s), s) for s in (0, 1)],
        game_id="counter",
        max_frames=1200,
        seed=40,
    )
    session = build_session(
        plan, NetemConfig.for_rtt(0.040, loss=0.05), with_time_server=False
    )
    lates = []
    for vm in session.vms:
        pacer = vm.runtime.pacer

        def begin_frame(now, frame, sample, rtt, late, inner=pacer.begin_frame):
            lates.append(late)
            return inner(now, frame, sample, rtt, late)

        pacer.begin_frame = begin_frame
    session.run()
    assert len(lates) == 2400 and set(lates) == {0.0}
