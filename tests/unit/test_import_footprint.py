"""What importing the package and running a simulated session loads.

``repro.net.udp`` (real sockets under asyncio) pulls in ``asyncio`` and,
through it, ``ssl``: several megabytes of resident memory and tens of
milliseconds of start-up that no simulated session uses.  The CLI and a
simulator session must not load them; only the real-socket driver and
its tests import that module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys
import repro, repro.cli
from repro import (
    NetemConfig, PadSource, RandomSource, SyncConfig, build_session,
    create_game, two_player_plan,
)
plan = two_player_plan(
    SyncConfig(),
    machine_factory=lambda: create_game("pong"),
    sources=[PadSource(RandomSource(1), 0), PadSource(RandomSource(2), 1)],
    max_frames=60,
)
session = build_session(plan, NetemConfig.for_rtt(0.040))
session.run()
assert [vm.runtime.frame for vm in session.vms] == [60, 60]
print(" ".join(name for name in ("asyncio", "ssl") if name in sys.modules))
"""


def test_cli_and_a_simulated_session_leave_asyncio_and_ssl_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
