"""Adaptive consistency: the lag and the speculation window, tuned per site.

The paper fixes one consistency mechanism for the whole session: local-lag
lockstep with ``BufFrame`` ≈ 100 ms.  That choice is only right while the
network cooperates — past ``RTT/2 > BufFrame · TimePerFrame`` every frame
blocks on the input gate and the game collapses to the network's pace.
Speculation (a :class:`~repro.core.rollback.SyncInput` window opened to
``SPECULATION_WINDOW``) keeps the frame rate at any RTT but pays CPU for
replay and misprediction artifacts the paper's LAN deployment never
needed.

This module makes the choice *per site and per RTT regime*, with two
hysteretic filters:

* :class:`LagTuner` — the hysteretic half of adaptive local lag.  The raw
  proposal (``ceil((RTT/2 + margin) · CFPS)``) chases every RTT sample;
  the tuner applies the first resize immediately (start-up convergence)
  and afterwards requires a minimum interval between changes, so jitter
  cannot oscillate the lag.
* :class:`ConsistencyPolicy` — watches the *per-peer* smoothed RTT
  (:meth:`repro.core.rtt.RttEstimator.peer_rtt`) and proposes the
  window, 0 or ``SPECULATION_WINDOW``, through a hysteresis band: open
  it once any peer link degrades past ``POLICY_ROLLBACK_ABOVE_S``, close
  it only when every link is below ``POLICY_LOCKSTEP_BELOW_S``, with a
  dwell time between transitions.

Switching
---------

A window is a *local* choice: a site's lag and speculation only move where
its own frames execute, and its wire traffic (SYNC windows, acks) is
identical at every window.  Lock-step replicas agree because they compute
from the same inputs, not because they agree on how they compute them,
so no peer is asked: when the policy proposes another window on a flush,
the site commits it in that flush, which is a frame boundary.  Opening
the window syncs the speculative machine from the confirmed shadow (delta
pages) before the first speculation; closing it first drains speculation
(the gate blocks until every speculated frame is confirmed) so lockstep
resumes from a state the shadow has proven.  At every window the
confirmed machine is ``runtime.machine``, so the consistency trace is
continuous across switches and bit-identical to a never-switched lockstep
twin (a switch carries the local lag across; only ``adaptive_lag`` moves
it).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.config import SyncConfig
from repro.core.inputs import InputAssignment, InputSource
from repro.core.multisite import SessionPlan, build_session
from repro.core.rollback import SPECULATION_WINDOW, SyncInput
from repro.core.rtt import RttEstimator

#: Safety margin over the one-way estimate (covers send batching and
#: slice delays) when sizing the adaptive lag, in seconds.
ADAPTIVE_MARGIN = 0.035

#: Bounds for the adaptive lag, in frames.
ADAPTIVE_MIN_BUF = 2
ADAPTIVE_MAX_BUF = 15

#: Hysteresis for the adaptive lag tuner: after the first (immediate)
#: resize, further changes are applied at most once per this many seconds,
#: so RTT jitter cannot make the lag oscillate.
ADAPTIVE_WINDOW_S = 1.0

#: A site speculates (opens its window) once any peer's smoothed RTT is above
#: this threshold, in seconds...
POLICY_ROLLBACK_ABOVE_S = 0.140

#: ...and closes it once every peer's smoothed RTT is back
#: below this one.  The gap between the two is the hysteresis band that
#: keeps a jittery link from flapping modes.
POLICY_LOCKSTEP_BELOW_S = 0.100

#: Minimum dwell time between mode switches, in seconds.
POLICY_DWELL_S = 2.0


class LagTuner:
    """Hysteretic filter between the RTT estimate and ``set_local_lag``.

    ``propose`` returns the lag to apply now, or None to leave it alone.
    The first proposal is applied immediately — a session that started
    with a default lag should converge as soon as the first RTT sample
    lands.  Afterwards at least ``ADAPTIVE_WINDOW_S`` must have passed
    since the last applied change, so a monotone RTT ramp moves the lag
    at most once per window and sample jitter cannot flip it back and
    forth.
    """

    def __init__(self, config: SyncConfig) -> None:
        self._config = config
        self._last_change: Optional[float] = None

    def target_for(self, one_way: float) -> int:
        """The raw (unfiltered) lag target for a one-way estimate."""
        needed = math.ceil((one_way + ADAPTIVE_MARGIN) * self._config.cfps)
        return max(ADAPTIVE_MIN_BUF, min(ADAPTIVE_MAX_BUF, needed))

    def propose(self, now: float, one_way: float, current: int) -> Optional[int]:
        """Lag to apply now, or None (unchanged, or window suppressed)."""
        target = self.target_for(one_way)
        if target == current:
            return None
        if (
            self._last_change is not None
            and now - self._last_change < ADAPTIVE_WINDOW_S
        ):
            return None
        self._last_change = now
        return target


class ConsistencyPolicy:
    """Per-peer RTT watcher proposing a site's speculation window.

    The decision rides the *worst* peer link: lockstep blocks on the
    slowest peer's inputs, so one bad link is enough to justify
    speculation.  Hysteresis comes from two thresholds (a link must
    degrade past ``POLICY_ROLLBACK_ABOVE_S`` to open the window but
    recover below ``POLICY_LOCKSTEP_BELOW_S`` to close it) plus a dwell
    time between committed switches.  The window it opens is
    :data:`~repro.core.rollback.SPECULATION_WINDOW`.
    """

    def __init__(self) -> None:
        self._last_transition: Optional[float] = None

    def note_transition(self, now: float) -> None:
        """Record a committed switch (arms the dwell timer)."""
        self._last_transition = now

    def worst_peer_rtt(self, rtt: RttEstimator, peer_sites: List[int]) -> float:
        if not peer_sites:
            return rtt.rtt
        return max(rtt.peer_rtt(site) for site in peer_sites)

    def propose(
        self,
        now: float,
        rtt: RttEstimator,
        peer_sites: List[int],
        window: int,
    ) -> Optional[int]:
        """Window to apply now, or None to leave ``window`` as it is."""
        if not rtt.samples:
            return None
        if (
            self._last_transition is not None
            and now - self._last_transition < POLICY_DWELL_S
        ):
            return None
        worst = self.worst_peer_rtt(rtt, peer_sites)
        if not window and worst > POLICY_ROLLBACK_ABOVE_S:
            return SPECULATION_WINDOW
        if window and worst < POLICY_LOCKSTEP_BELOW_S:
            return 0
        return None


def build_adaptive_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
    game_id: str = "adaptive",
):
    """An adaptive-consistency session on the simulator:
    :func:`build_session` with every site a
    :class:`~repro.core.rollback.SyncInput` part whose
    :class:`ConsistencyPolicy` moves its window between 0 (the start)
    and :data:`~repro.core.rollback.SPECULATION_WINDOW` mid-session,
    under the paper's default local lag."""
    machines = [(game_factory(), game_factory()) for _ in sources]
    plan = SessionPlan(
        config=config if config is not None else SyncConfig(),
        assignment=InputAssignment.standard(len(sources)),
        machines=[confirmed for confirmed, _ in machines],
        sources=sources,
        game_id=game_id,
        max_frames=frames,
        frame_compute_time=frame_compute_time,
        seed=seed,
        consistency=[
            SyncInput(spec, policy=ConsistencyPolicy()) for _, spec in machines
        ],
    )
    return build_session(plan, netem)
