"""The paper's contribution: the sync module and the distributed VM loop.

Layout mirrors the paper's structure:

* :mod:`repro.core.inputs` — inputs as bit strings partitioned into per-site
  ``SET[k]`` masks (§3, "we view the input as a binary string").
* :mod:`repro.core.ibuf` — ``IBuf``, the frame-indexed input buffer.
* :mod:`repro.core.messages` — the sync wire format
  (``sd[0..2]`` + ``sd[3…]`` of Algorithm 2, plus session control).
* :mod:`repro.core.lockstep` — Algorithm 2 (``SyncInput``) as a sans-IO
  state machine.
* :mod:`repro.core.pacing` — Algorithms 3 and 4 (frame timing).
* :mod:`repro.core.rtt` — RTT estimation feeding Algorithm 4's ``RTT/2``.
* :mod:`repro.core.session` — the session control protocol that starts
  both sites within one round trip.
* :mod:`repro.core.engine` — Algorithm 1 as a sans-IO engine:
  ``poll(now, datagrams) -> [effects]``, hosting the
  whole orchestration (handshake or state acquire, pumps, frame loop,
  linger) exactly once; its ``consistency`` part decides which
  ``SyncInput`` the loop runs.
* :mod:`repro.core.driver` — driver-support helpers shared by both shells.
* :mod:`repro.core.vm` — the discrete-event driver (simulator).
* :mod:`repro.core.aio` — the asyncio driver over real UDP: many sessions,
  one process.
* :mod:`repro.core.multisite` — N players and observers, and late-joiner
  admission (journal extension).
* :mod:`repro.core.replay` — input movies (record / verify / replay).
* :mod:`repro.core.rollback` — the consistency part that runs it: the
  ``SyncInput`` gate with a speculation window, where 0 is the paper's
  lockstep and more is the timewarp alternative at zero local lag.
* :mod:`repro.core.policy` — per-site tuning of the lag and the window.
"""

from repro.core.config import SyncConfig
from repro.core.ibuf import InputBuffer
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
from repro.core.engine import SiteEngine, SitePeer, SiteRuntime
from repro.core.lockstep import LockstepSync
from repro.core.pacing import FramePacer
from repro.core.vm import DistributedVM

__all__ = [
    "Buttons",
    "DistributedVM",
    "FramePacer",
    "IdleSource",
    "InputAssignment",
    "InputBuffer",
    "InputSource",
    "LockstepSync",
    "PadSource",
    "RandomSource",
    "RecordedSource",
    "ScriptedSource",
    "SiteEngine",
    "SitePeer",
    "SiteRuntime",
    "SyncConfig",
]
