"""Pinned behaviour fingerprints of four short sessions.

A refactor of the driver, the engine pump or a sync algorithm must leave
every timer, RNG draw, trace record, datagram and virtual timestamp where
it was.  Each session pins one sha256 per component of what every site
recorded — ``states`` (frame, input and checksum of every committed
frame), ``frames`` (``FrameTrace.to_rows()``: begin, input, checksum,
stall, adjust and lag per frame), ``events`` (the ``EventTrace`` ring and
its drop count), ``transport`` (``TransportStats``), ``counters`` (the
counter snapshot) and ``termination`` — so a change that moves any of
them fails here, in tier-1, and the failing key says which one moved.

The digests were first captured (as one digest per session) at commit
1b1add5 and re-captured three times by changes meant to move the slave's
virtual timestamps (every frame's inputs and checksum are where they
were).  Then Transition became a step within the pump that opens the gate
instead of a phase with its own timer, and the linger bound one deadline
instead of a poll: only ``events`` moved (the per-frame ``phase`` and
``compute`` timer records are gone, so the ring reaches further back);
the other four were captured at that change's parent and hold unchanged.
Then SYNC windows became change-coded (wire v3): only the byte counts in
``transport`` and ``counters`` moved, and ``frames``, ``events`` and
``termination`` hold.  Then every wait on a peer became one ``retry`` and
one ``timeout`` timer: only ``adaptive_pong_with_poke``'s ``events``
moved, and only by timer names (its resync ticks read ``retry``); a
fourth session, a player joining by state transfer under 10% loss, was
added with its other four components captured at that change's parent
(its joiner's ring gains the first request's ``retry`` record).  Then a
SYNC carried one ack instead of the ack vector and its window length in
the head byte, and a time-server report only its frame (wire v4): again
only the byte counts in ``transport`` and ``counters`` moved.  Then the
``acquire`` and ``resync`` phases became one ``recover`` phase: only
``adaptive_pong_with_poke``'s ``events`` moved, by its four ``phase``
rows (two per site) that read ``recover`` where they read ``resync``.
Then a presented frame counted once (the ``frames`` counter had counted
each lockstep commit twice): only ``counters`` moved, in the three
sessions with lockstep frames; ``rollback_pong`` holds.  Then the
bandwidth budget was deleted: only ``counters`` moved, in all four
sessions, because the always-zero ``net_budget_deferrals`` key left the
snapshot (re-adding it with value 0 reproduces the old digests).
Then ``states`` was added, the state sequence alone without any timing,
so a change that re-pins timing can never hide a change in what the
sites computed.  Then the mode-switch handshake was deleted (a site
commits its mode in the flush that decides it): ``states`` and
``termination`` hold in all four sessions; ``adaptive_pong_with_poke``
moved ``frames``, ``events``, ``transport`` and ``counters`` (no ack
wait, no SWITCH datagrams); the other three moved only ``counters``,
because the always-zero ``switch_log_evictions`` key left the snapshot
(re-adding it with value 0 reproduces the old digests).  A
change that is *meant* to alter behaviour re-captures them with
``python tests/integration/test_session_fingerprint.py``, re-pins only
the components it meant to move (the script marks each digest that
differs from ``PINNED`` with a trailing ``# moved``), and says so in
CHANGES.md.  CI runs this file under ``PYTHONHASHSEED=0`` and
``PYTHONHASHSEED=random`` on both matrix Pythons.
"""

import hashlib
import json

import pytest

from repro.core.config import SyncConfig
from repro.core.engine import SitePeer
from repro.core.inputs import InputAssignment, PadSource, RandomSource
from repro.core.multisite import (
    SessionPlan,
    build_session,
    register_late_join,
    site_address,
    two_player_plan,
)
from repro.core.policy import build_adaptive_session
from repro.core.rollback import build_rollback_session
from repro.core.vm import DistributedVM
from repro.emulator.machine import create_game
from repro.harness.chaos import _poke_machine
from repro.net.netem import NetemConfig, named_profile


def _pads(seed, **kwargs):
    return [PadSource(RandomSource(seed + i, **kwargs), i) for i in (0, 1)]


def lossy_lockstep_counter():
    plan = two_player_plan(
        SyncConfig(send_interval=0.020),
        lambda: create_game("counter"),
        _pads(66),
        max_frames=600,
        seed=66,
        game_id="counter",
    )
    return build_session(
        plan, NetemConfig.for_rtt(0.040, loss=0.05), with_time_server=False
    )


def rollback_pong():
    return build_rollback_session(
        lambda: create_game("pong"),
        _pads(21, toggle_p=0.08),
        NetemConfig.for_rtt(0.080),
        frames=300,
        seed=21,
    )


def adaptive_pong_with_poke():
    session = build_adaptive_session(
        lambda: create_game("pong"),
        _pads(34, toggle_p=0.08),
        named_profile("mobile-burst", rtt=0.240),
        frames=300,
        seed=34,
        config=SyncConfig(state_digest_interval=10),
        game_id="pong",
    )
    machine = session.vms[1].runtime.machine
    session.loop.call_at(2.0, lambda: _poke_machine(machine, 0x1234, 0x40))
    return session


def late_joining_player():
    """A third player acquires site 0's state 2 s into a lossy session."""
    plan = SessionPlan(
        config=SyncConfig.paper_defaults(),
        assignment=InputAssignment.standard(3),
        machines=[create_game("counter") for __ in range(3)],
        sources=[PadSource(RandomSource(30 + s), player=s) for s in range(3)],
        game_id="counter",
        max_frames=360,
        handshake_sites=[0, 1],
    )
    session = build_session(
        plan, NetemConfig(delay=0.02, loss=0.1), excluded_sites=[2]
    )
    engine = plan.build_engine(
        2,
        [SitePeer(s, site_address(s)) for s in range(3)],
        donor_site=0,
        time_server_address=session.time_server.address,
    )
    register_late_join(session.vms, session.vms[0], joiner_site=2)
    session.vms.append(
        DistributedVM(session.loop, session.network, engine, start_delay=2.0)
    )
    return session


def _components(vm) -> dict:
    snapshot = vm.engine.snapshot()
    trace = vm.runtime.trace
    return {
        "states": [
            [trace.first_frame + i, word, checksum]
            for i, (word, checksum) in enumerate(zip(trace.inputs, trace.checksums))
        ],
        "frames": trace.to_rows(),
        "events": [vm.runtime.events.rows(), vm.runtime.events.dropped],
        "transport": vm.socket.stats.as_dict(),
        "counters": snapshot["counters"],
        "termination": snapshot["termination"],
    }


def fingerprint(session) -> dict:
    """One sha256 per component over what every site of a finished
    session recorded, so a moved digest names what moved."""
    sites = [_components(vm) for vm in session.vms]
    digests = {}
    for name in sites[0]:
        blob = json.dumps(
            [site[name] for site in sites], sort_keys=True, separators=(",", ":")
        )
        digests[name] = hashlib.sha256(blob.encode()).hexdigest()
    return digests


PINNED = {
    lossy_lockstep_counter: {
        "states": "786ace42ddac67eb91a3e4d4451b3893ed14e1885bc579ad8da9bab036efad21",
        "frames": "e05b294502ba8e642c2db46ce4dc1529890f9615f6dcc09802a213affcce7d74",
        "events": "ebb77cc905772eb1a137276ba339d6b5a2aef61c597d6e8eced9a978c578348a",
        "transport": "d199b85c21b49bb4dd01a154660b7afbb28df3a3fdbc5ee868d05b517bff2373",
        "counters": "b6a1f75e468117ff8b42e631266c865ce9efda76b09adef887d80509c838de96",
        "termination": "fad99ade5ef5f68fa04c06c3e521a6bd4aa3e55431c5f723d028603f0efe66f0",
    },
    rollback_pong: {
        "states": "d3294ec0ce427a31501895a5e1668d968a2cd32a03656880763991b11e024097",
        "frames": "4dc2ebb76cf419ad9c4e0a6b83b090908b0e20cd5121abbe980a3d61c7582644",
        "events": "67a4430212a11b2fb37057ae154c18573dedb62eb84159da61d926317ee850bd",
        "transport": "25484fae6abd9ec6c303da8c3037873121a0a92099a2ee5e90c998466ddb8848",
        "counters": "94aa2a5c2c179d0e545c4f8a1e4fade62262d8f8581c492838c3c231670a0df1",
        "termination": "fad99ade5ef5f68fa04c06c3e521a6bd4aa3e55431c5f723d028603f0efe66f0",
    },
    adaptive_pong_with_poke: {
        "states": "a506feb00c295972397ca5302e88e2132b420e12c6e4743942b7a8ccdb8f4216",
        "frames": "76807a232c457744ff5a3cd2efa5144a5addecb4f58de5a40506e6ed2939e126",
        "events": "56fec7d09155751042c84f990657b5d4aaf9fa93046a61f9766a1ec180055c2f",
        "transport": "eac76dcd85b20ef74e7b330758f06575b14cfac36adb1dd7e7deb7074ce536c1",
        "counters": "1764f873483e3055173babbc27f5dd5b7ee6e5d3c5a04bf41a14999129d9f85c",
        "termination": "fad99ade5ef5f68fa04c06c3e521a6bd4aa3e55431c5f723d028603f0efe66f0",
    },
    late_joining_player: {
        "states": "f6088cb5022d4dd536489830e7cc75b50d05b5f753e41832477360ce7af7c05c",
        "frames": "c26240975ca98be101e9a0ddbc74d4a501274456ae02a46dd9331f5abadfea23",
        "events": "cbb632c159707d54e3bc2764352a0d46efdde1d5ea7d81b3ffdb02d2fcb5ed1f",
        "transport": "c600dc612e427e127a228cc6d91352ddfb877d6c3aaf12ba089c21d0ac638c09",
        "counters": "1d75cb706eb9f4f1378389dfdb4a1186b8ee06644ccc6cc53891dfc6ceda5a86",
        "termination": "3732a9e88c4a9637718cbace1de7160cea83bf2251a1289d6023447d2d3bed34",
    },
}


@pytest.mark.parametrize("build", list(PINNED), ids=lambda build: build.__name__)
def test_session_fingerprint_is_pinned(build):
    session = build()
    session.run()
    if build is adaptive_pong_with_poke:
        # It covers the resync path only if the poke landed and was healed.
        counters = [vm.engine.snapshot()["counters"] for vm in session.vms]
        assert sum(c["desync_detected"] for c in counters) >= 1
        assert sum(c["resync_success"] for c in counters) >= 1
    if build is late_joining_player:
        # It covers the acquire path only if the joiner entered the loop.
        assert session.vms[2].engine.joined_at_frame == 120
    assert fingerprint(session) == PINNED[build]


if __name__ == "__main__":
    for build in PINNED:
        session = build()
        session.run()
        print(f"    {build.__name__}: {{")
        for name, digest in fingerprint(session).items():
            moved = "  # moved" if digest != PINNED[build][name] else ""
            print(f'        "{name}": "{digest}",{moved}')
        print("    },")
