"""repro — real-time collaboration transparency for legacy TV/arcade games.

A from-scratch reproduction of Zhao, Li, Gu, Shao & Gu, *"An Approach to
Sharing Legacy TV/Arcade Games for Real-Time Collaboration"* (ICDCS 2009):
a game-transparent synchronization layer that turns single-machine emulated
games into two-or-more-machine distributed games by extending the game VM —
never the games — with local-lag lockstep (logical consistency) and
master/slave frame pacing (real-time consistency).

Quick start::

    from repro import (
        NetemConfig, SyncConfig, build_session, create_game,
        two_player_plan, PadSource, RandomSource,
    )

    plan = two_player_plan(
        SyncConfig.paper_defaults(),
        machine_factory=lambda: create_game("pong"),
        sources=[PadSource(RandomSource(1), 0), PadSource(RandomSource(2), 1)],
        max_frames=600,
    )
    session = build_session(plan, NetemConfig.for_rtt(0.040))
    session.run()
    # replicas converged:
    checks = [vm.runtime.trace.checksums[-1] for vm in session.vms]
    assert checks[0] == checks[1]

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduction results.
"""

from repro.core.config import SyncConfig
from repro.core.inputs import (
    Buttons,
    IdleSource,
    InputAssignment,
    InputSource,
    PadSource,
    RandomSource,
    RecordedSource,
    ScriptedSource,
)
from repro.core.lockstep import LockstepSync
from repro.core.multisite import (
    Session,
    SessionPlan,
    build_session,
    players_and_observers_plan,
    site_address,
    two_player_plan,
)
from repro.core.pacing import FramePacer
from repro.core.session import SessionError
from repro.core.engine import GameMachine, SitePeer, SiteRuntime
from repro.core.vm import DistributedVM
from repro.emulator.machine import Machine, available_games, create_game
from repro.metrics.recorder import ConsistencyChecker, ConsistencyError
from repro.net.netem import NetemConfig

__version__ = "1.0.0"

__all__ = [
    "Buttons",
    "ConsistencyChecker",
    "ConsistencyError",
    "DistributedVM",
    "FramePacer",
    "GameMachine",
    "IdleSource",
    "InputAssignment",
    "InputSource",
    "LockstepSync",
    "Machine",
    "NetemConfig",
    "PadSource",
    "RandomSource",
    "RecordedSource",
    "ScriptedSource",
    "Session",
    "SessionError",
    "SessionPlan",
    "SitePeer",
    "SiteRuntime",
    "SyncConfig",
    "available_games",
    "build_session",
    "create_game",
    "players_and_observers_plan",
    "site_address",
    "two_player_plan",
    "__version__",
]
