"""Pinned behaviour fingerprints of three short two-site sessions.

A refactor of the driver, the engine pump or a sync algorithm must leave
every timer, RNG draw, trace record, datagram and virtual timestamp where
it was.  Each digest below is a sha256 over what both sites recorded —
``FrameTrace.to_rows()``, the ``EventTrace`` ring, ``TransportStats`` and
the counter snapshot — so a change that moves any of them fails here, in
tier-1, instead of in a hand-made comparison per PR.

The hex digests were first captured at commit 1b1add5 (the parent of the PR
that added this file) and re-captured three times by changes meant to move
the slave's virtual timestamps (every frame's inputs and checksum are where
they were): Algorithm 4 reading the least-delayed of its last eight master
samples instead of the newest, then remembering 64 samples unless its gate
waits on the master — together with the send timer folded into the flush
timer, which takes the ``send`` records out of the event traces — then
line 9 replacing the overrun debt a slave carries instead of adding to it,
together with the new ``pacer_sync_adjust_clamped`` counter.  A change
that is *meant* to alter behaviour re-captures them with
``python tests/integration/test_session_fingerprint.py`` and says so in
CHANGES.md.  CI runs this file under ``PYTHONHASHSEED=0`` and
``PYTHONHASHSEED=random`` on both matrix Pythons.
"""

import hashlib
import json

import pytest

from repro.core.config import SyncConfig
from repro.core.inputs import PadSource, RandomSource
from repro.core.multisite import build_session, two_player_plan
from repro.core.policy import build_adaptive_session
from repro.core.rollback import build_rollback_session
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


def fingerprint(session) -> str:
    """sha256 over what both sites of a finished session recorded."""
    sites = []
    for vm in session.vms:
        snapshot = vm.engine.snapshot()
        sites.append(
            {
                "frames": vm.runtime.trace.to_rows(),
                "events": vm.runtime.events.rows(),
                "events_dropped": vm.runtime.events.dropped,
                "transport": vm.socket.stats.as_dict(),
                "counters": snapshot["counters"],
                "termination": snapshot["termination"],
            }
        )
    blob = json.dumps(sites, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


PINNED = {
    lossy_lockstep_counter: (
        "176de963afae383959734138a6a29593aa5be029f8751a9a9158e90668d7d8ec"
    ),
    rollback_pong: (
        "65fb13cc7cc96c9fe438b687444319a1322b77bd161bfdb52f10e27be69e5bd9"
    ),
    adaptive_pong_with_poke: (
        "245bd1dcb6e29233caf5740df7605b9d3acfde9e22a825de10a472aae8372a2f"
    ),
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
    assert fingerprint(session) == PINNED[build]


if __name__ == "__main__":
    for build in PINNED:
        session = build()
        session.run()
        print(f'    {build.__name__}: "{fingerprint(session)}",')
