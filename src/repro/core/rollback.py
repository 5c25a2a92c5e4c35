"""The consistency part: Algorithm 2's ``SyncInput`` with a speculation window.

A site's frame loop asks one part whether its next frame may run and then
commits it.  The part's ``window`` is how many frames execution may run
ahead of confirmed inputs.  The paper's gate is the zero window: block
until every gating site's input has arrived, execute the frame once.

The paper also weighed the other end (§5): *"Timewarp needs to rollback
application states, which may be used in realtime systems if the costs of
rolling back are not too high.  It is not applicable for solving our
problem because rolling back states of a distributed game without
semantic knowledge can be expensive."*  The Machine contract already
gives us game-transparent savestates, so the claim is measurable.  With
a window above zero the part plays with **zero local lag**:

* local inputs land in their own frame's slot (``BufFrame = 0``),
* the *speculative* machine executes every frame immediately, guessing
  missing remote inputs through the :class:`InputPredictor` (repeat the
  newest pad state heard, releasing impulse buttons after a per-game
  hold),
* at most :data:`SPECULATION_WINDOW` frames run ahead of confirmation,
* a *shadow* machine executes only confirmed inputs (ordinary lockstep
  delivery) and therefore always holds a provably consistent state,
* when a confirmed input contradicts a prediction, the speculative machine
  is restored from the shadow and the unconfirmed suffix is replayed —
  classic rollback, with the shadow replacing a snapshot ring, so memory
  stays O(1).  The restore uses the Machine contract's delta snapshots
  (``save_delta``/``apply_delta``): only pages either machine dirtied
  since their last sync are copied, so a typical restore moves a few KiB
  instead of the full 64 KiB state (``RollbackStats`` reports the bytes
  actually copied); machines without page tracking transparently fall
  back to full ``save_state``/``load_state``.

Logical consistency is *defined* by the confirmed machine whatever the
window: its trace is what the consistency checker verifies, and it is
byte-identical to what a zero-window run would produce.  What a window
buys is responsiveness (0 ms input latency instead of the paper's
100 ms); what it costs is exactly the replay work measured by
:class:`RollbackStats` — the quantity the paper's argument hinges on.

Reliable input distribution, acks, retransmission and pruning are
:class:`~repro.core.lockstep.LockstepSync`'s at every window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import SyncConfig
from repro.core.engine import (
    GameMachine,
    PHASE_CATCHUP,
    PHASE_FRAME_WAIT,
    PHASE_GATE,
    SiteEngine,
)
from repro.core.inputs import BITS_PER_PLAYER, InputAssignment, InputSource
from repro.core.multisite import SessionPlan, build_session


def _state_mark(machine: GameMachine) -> int:
    """Duck-typed ``Machine.state_mark`` (0 for protocol-only machines)."""
    mark = getattr(machine, "state_mark", None)
    return mark() if mark is not None else 0


def _dirty_pages(machine: GameMachine, mark: int) -> Optional[List[int]]:
    """Duck-typed ``Machine.dirty_pages_since`` (None ⇒ no page tracking)."""
    dirty = getattr(machine, "dirty_pages_since", None)
    return dirty(mark) if dirty is not None else None


# ----------------------------------------------------------------------
# Input prediction.
# ----------------------------------------------------------------------
def _directional_mask(word: int) -> int:
    """Word-wide mask selecting every player's directional nibble.

    The pad layout (:mod:`repro.core.inputs`) puts UP/DOWN/LEFT/RIGHT in
    the low nibble of each player byte and the impulse buttons
    (A/B/START/COIN) in the high one; the two nibbles have very different
    temporal statistics, which the heuristic predictor exploits.
    """
    mask = 0x0F
    shift = BITS_PER_PLAYER
    while word >> shift:
        mask |= 0x0F << shift
        shift += BITS_PER_PLAYER
    return mask


class InputPredictor:
    """Guesses a site's not-yet-received pad state: repeat the newest pad
    state heard from the site, with per-game impulse decay.

    The part feeds every input it learns through :meth:`observe` —
    delivered in lockstep order, or merely received ahead of the
    confirmation frontier (inputs regularly wait there on another site's
    gap, or on our own flush, so repeating the freshest value instead of
    the last confirmed one shaves the staleness window) — and asks
    :meth:`predict` for frames it must speculate past.  Predictions only
    affect replay cost, never consistency: the confirmed shadow machine
    defines the session outcome whatever the predictor returns.

    Directional bits are held indefinitely (players hold directions for
    runs of frames), but the impulse nibble — taps of A/B/START/COIN — is
    predicted *released* once the extrapolation runs more than
    ``impulse_hold`` frames past the newest observation: predicting a tap
    as held forever costs a guaranteed rollback at its release edge.
    ``impulse_hold`` is the expected *remaining* held time after an
    observation — one less than the game's typical tap length (a 2-frame
    tap seen at its first frame persists exactly 1 more frame) — from
    :data:`GAME_IMPULSE_HOLD`.  Over-holding is the costly direction:
    hold 2 on 2-frame taps halves the measured gain because most
    rollback-replay predictions happen 1–2 frames past the newest
    observation, inside the hold, where no decay ever fires.
    """

    def __init__(self, impulse_hold: int = 1) -> None:
        self.impulse_hold = impulse_hold
        #: Newest known (frame, bits) per site.
        self._seen: Dict[int, Tuple[int, int]] = {}

    @classmethod
    def for_game(cls, game_id: Optional[str]) -> "InputPredictor":
        return cls(GAME_IMPULSE_HOLD.get(game_id or "", 1))

    def observe(self, site: int, frame: int, bits: int) -> None:
        newest = self._seen.get(site)
        if newest is None or frame >= newest[0]:
            self._seen[site] = (frame, bits)

    def predict(self, site: int, frame: int) -> int:
        entry = self._seen.get(site)
        if entry is None:
            return 0
        observed_frame, bits = entry
        if frame - observed_frame > self.impulse_hold:
            bits &= _directional_mask(bits)
        return bits


#: Per-game tuning of the predictor's impulse extrapolation depth: frames
#: a pressed button is still predicted held past its last observation,
#: i.e. typical tap length minus one.  Tap-driven games want short holds;
#: charge/hold games longer ones.  The predictor floor in
#: ``tests/integration/test_session_gates.py`` is the instrument for
#: tuning these.
GAME_IMPULSE_HOLD: Dict[str, int] = {
    "counter": 1,
    "pong": 1,
    "tankduel": 2,
    "brawler": 1,
}


class RollbackStats:
    """Cost accounting for the speculation machinery."""

    def __init__(self) -> None:
        self.speculative_frames = 0
        self.confirmed_frames = 0
        #: Confirmed frames whose input word had been speculated (the
        #: denominator of the hit ratio).
        self.predicted_frames = 0
        self.mispredicted_frames = 0
        self.rollbacks = 0
        self.replayed_frames = 0
        self.max_replay_depth = 0
        self.speculation_stalls = 0
        #: Snapshot traffic of the shadow→speculative restores: number of
        #: syncs, bytes actually serialized, and what full savestates would
        #: have cost instead (the paper's "rolling back is expensive" cost).
        self.snapshot_syncs = 0
        self.snapshot_bytes_copied = 0
        self.snapshot_bytes_full = 0

    @property
    def predict_hit_ratio(self) -> float:
        """Fraction of speculated frames whose input guess held up."""
        if not self.predicted_frames:
            return 1.0
        return 1.0 - self.mispredicted_frames / self.predicted_frames

    def as_dict(self) -> dict:
        out = dict(vars(self))
        out["predict_hit_ratio"] = round(self.predict_hit_ratio, 4)
        return out


#: How many frames a speculating part may run ahead of confirmed inputs
#: (one second at 60 fps): the window every rollback session and every
#: adaptive policy opens.
SPECULATION_WINDOW = 60

#: ``switch_commit`` mode codes: the window a site committed is closed
#: (lockstep) or open (rollback).
MODE_LOCKSTEP = 0
MODE_ROLLBACK = 1


class SyncInput:
    """A site's consistency part: the ``SyncInput`` its frame loop runs.

    ``window`` is how many frames execution may run ahead of confirmed
    inputs, 0 or :data:`SPECULATION_WINDOW`; it is the part's state, which
    the policy moves.  At 0 this is the paper's gate: block until every
    gating site's input for the frame has arrived, then execute it on
    ``runtime.machine``.  Above 0 the part speculates with zero input lag:

    * ``spec_machine`` — a second, identically-constructed machine that
      executes every frame at once (``runtime.machine`` stays the
      confirmed shadow),
    * ``predictor`` — the :class:`InputPredictor` that guesses
      not-yet-received remote inputs, built for the game at attach,
    * ``window`` bounds how far speculation may run ahead of confirmation
      before the site blocks (bounds replay cost and keeps a network
      partition from spinning the CPU).

    Only a part built with ``spec_machine`` ever speculates; only it
    builds a predictor and publishes ``engine.spec_machine`` and
    ``runtime.rollback_stats``.  ``policy`` (a
    :class:`~repro.core.policy.ConsistencyPolicy`) moves the window on
    the flush cadence, as the lag tuner moves the lag: opening it syncs
    the speculative machine from the shadow; closing it drains
    speculation (the gate holds until every speculated frame is
    confirmed) and then runs the paper's path again.  A part that
    speculates without a policy claims zero local lag at :meth:`attach`
    — zero input latency is speculation's point — and the lockstep slot
    mapping drains the already-buffered lag window naturally.
    """

    def __init__(
        self,
        spec_machine: Optional[GameMachine] = None,
        window: int = 0,
        policy=None,
    ) -> None:
        self.spec_machine = spec_machine
        self.window = window
        #: Built at :meth:`attach` when speculating is possible (its
        #: impulse hold is per game, and the runtime knows the game).
        self.predictor: Optional[InputPredictor] = None
        self.policy = policy
        #: True while the speculative machine presents frames; it stays
        #: True after the window closes until speculation has drained.
        self.speculating = window > 0
        #: Input word the speculative machine used per frame.
        self._used_inputs: Dict[int, int] = {}
        #: Count of frames delivered to the shadow (frontier + 1).
        self._confirmed_count = 0

    def attach(self, engine: SiteEngine) -> None:
        """Called once, by the engine that will run this part."""
        self.engine = engine
        runtime = self.runtime = engine.runtime
        if self.spec_machine is None:
            return
        self.predictor = InputPredictor.for_game(runtime.game_id)
        self.stats = RollbackStats()
        self._full_state_size: Optional[int] = None
        # Duck-typed: the metric catalog reads the stats off the runtime,
        # the session benchmark's ledger finds the second machine on the
        # engine.
        runtime.rollback_stats = self.stats
        engine.spec_machine = self.spec_machine
        # Delta-snapshot marks: pages either machine dirties after these
        # marks are exactly what the next shadow→spec restore must copy
        # (both machines are freshly built and identical right now).
        self._shadow_mark = _state_mark(runtime.machine)
        self._spec_mark = _state_mark(self.spec_machine)
        if self.window and self.policy is None:
            runtime.lockstep.set_local_lag(0)

    # ------------------------------------------------------------------
    # The frame-loop steps
    # ------------------------------------------------------------------
    def try_ready(self, now: float) -> Optional[int]:
        """The line-21 exit check; None while the frame may not run yet.
        Speculating, the window bound replaces delivery and the word
        returned is the zero-lag *prediction*."""
        runtime = self.runtime
        if self.speculating:
            self.confirm_pending(now)
            frame = runtime.frame
            if self.window:
                if frame - self.confirmed_frontier > self.window:
                    self.stats.speculation_stalls += 1
                    return None
                word = self._predict_input(frame)
                self._used_inputs[frame] = word
                return word
            # The window closed: hold until speculation drains, then go
            # on with this very gate check on the paper's path.
            if self.confirmed_frontier < frame - 1:
                return None
            self.speculating = False
            self._switched(now)
        lockstep = runtime.lockstep
        if self.predictor is None:
            return lockstep.deliver(or_none=True)
        # Keep the predictor and the frontier warm for the next opening.
        if not lockstep.can_deliver():
            return None
        return self.deliver_confirmed()

    def commit(
        self, merged: int, stall: float, sync_adjust: float, now: float
    ) -> None:
        """Execute one frame (the engine emits its ``Present``): on the
        confirmed machine, or speculatively, with zero input lag."""
        runtime = self.runtime
        if self.speculating:
            # Stall and adjust are recorded via the shadow, not here.
            self.spec_machine.step(merged)
            self.stats.speculative_frames += 1
            runtime.frame += 1
            return
        frame = runtime.frame
        runtime.run_transition(merged, stall, sync_adjust)
        runtime.on_present(frame, now)

    def flush_tick(self, now: float) -> None:
        """Let the policy move the window, on the ~20 ms flush cadence."""
        runtime = self.runtime
        engine = self.engine
        if (
            self.policy is None
            or not runtime.session.started
            or engine.done
            or (self.speculating and not self.window)
            or engine.phase not in (PHASE_GATE, PHASE_FRAME_WAIT)
        ):
            return
        window = self.policy.propose(
            now, runtime.rtt, runtime.peer_sites, self.window
        )
        if window is None:
            return
        # A flush is always at a frame boundary: Transition runs within
        # the pump that opens the gate.  A closed window drains in
        # try_ready, which commits the switch.
        self.window = window
        if window:
            # The shadow has executed every delivered frame; bring the
            # (stale since the last stint) speculative machine up to it
            # before the first speculation.
            self.sync_spec_from_shadow()
            self.reseat_frontier()
            self.speculating = True
            self._switched(now)

    def _switched(self, now: float) -> None:
        """One ``switch_commit`` record per committed window change."""
        self.policy.note_transition(now)
        runtime = self.runtime
        runtime.events.emit(
            "switch_commit",
            now,
            runtime.frame,
            mode=MODE_ROLLBACK if self.window else MODE_LOCKSTEP,
        )

    def settled(self, now: float) -> bool:
        """True once every presented frame is confirmed; the engine holds
        the linger phase back (``PHASE_CATCHUP``) until then.  While the
        engine re-checks it on every catch-up pump this is also the
        confirmation step (at the moment the last frame commits it must
        not be: confirming there would race that pump's flush)."""
        if not self.speculating:
            return True
        if self.engine.phase == PHASE_CATCHUP:
            self.confirm_pending(now)
        return self.confirmed_frontier >= self.engine.max_frames - 1

    # ------------------------------------------------------------------
    # Desync recovery: the rewind lands on the confirmed timeline (the
    # one digests sample).  Speculation stays frozen at the frontier and
    # is rebuilt from the healed shadow when the episode closes.
    # ------------------------------------------------------------------
    def resync_restore(self, state: bytes, anchor: int, now: float) -> None:
        """Rewind the machine, trace and delivery to ``anchor``; replay
        (:meth:`resync_progress`) then runs from locally retained inputs
        (``retain_floor`` guaranteed they were never pruned, so no network
        retransmission is involved)."""
        runtime = self.runtime
        # Begin times are indexed by *speculative* frames, which do not
        # rewind — preserve them across the committed-row truncation.
        begins = runtime.trace.begin_times[:] if self.speculating else None
        runtime.machine.load_state(bytes(state))
        runtime.trace.truncate_after(anchor)
        runtime.lockstep.rewind_delivery(anchor)
        if self.speculating:
            runtime.trace.begin_times[:] = begins
            # Speculated-word bookkeeping for the replayed window is
            # void; finish_resync re-records what it actually uses.
            self.reseat_frontier()
        else:
            runtime.frame = anchor + 1

    def resync_progress(self, now: float) -> None:
        """Re-execute restored-over frames up to (not including) the frozen
        frame; the frozen frame itself re-enters via the normal gate."""
        if self.speculating:
            # Re-confirm the shadow; _used_inputs is empty for the
            # replayed window, so no spec rollback fires here.
            self.confirm_pending(now)
            return
        runtime = self.runtime
        lockstep = runtime.lockstep
        while runtime.frame < runtime.recovery.frozen and lockstep.can_deliver():
            runtime.replay_transition(lockstep.deliver(), now)
        self.reseat_frontier()

    def finish_resync(self, now: float) -> None:
        """Last step of a healed episode, before the frame loop thaws: the
        speculative machine ran (and kept presenting) the divergent
        timeline; rebuild it from the healed shadow and re-speculate the
        unconfirmed suffix.  Not speculating, it is stale but idle, and
        the next opening re-syncs it."""
        if self.speculating:
            self._rollback_and_replay(self.confirmed_frontier + 1, now)

    # ------------------------------------------------------------------
    # Speculation
    # ------------------------------------------------------------------
    @property
    def confirmed_frontier(self) -> int:
        """Last frame whose inputs are fully confirmed (executed by shadow)."""
        return self._confirmed_count - 1

    def _predict_input(self, frame: int) -> int:
        """Best-known merged input for ``frame``: exact partials where
        received, the predictor's guess where not."""
        lockstep = self.runtime.lockstep
        predictor = self.predictor
        partials = {}
        for site in range(lockstep.num_sites):
            value = lockstep.ibuf.get(frame, site)
            if value is None:
                # Feed the predictor the site's newest *arrived* pad state
                # first: sync windows land several frames at once, and
                # without this the extrapolation base would trail at the
                # confirmation frontier instead of the freshest data.
                newest = lockstep.last_rcv_frame[site]
                if newest < frame:
                    heard = lockstep.ibuf.get(newest, site)
                    if heard is not None:
                        predictor.observe(site, newest, heard)
                value = predictor.predict(site, frame)
            else:
                predictor.observe(site, frame, value)
            partials[site] = value
        return lockstep.assignment.merge(partials)

    def deliver_confirmed(self) -> int:
        """Deliver the next confirmed frame's merged input, feeding each
        site's confirmed pad state to the predictor before pruning
        discards it."""
        lockstep = self.runtime.lockstep
        frame = lockstep.ibuf_pointer
        for site in range(lockstep.num_sites):
            value = lockstep.ibuf.get(frame, site)
            if value is not None:
                self.predictor.observe(site, frame, value)
        merged = lockstep.deliver()
        self._confirmed_count += 1
        return merged

    def _advance_shadow(self) -> Optional[int]:
        """Deliver any newly confirmed frames into the shadow machine.

        Returns the first mispredicted frame among them, or None.
        """
        runtime = self.runtime
        lockstep = runtime.lockstep
        first_bad: Optional[int] = None
        # The shadow must never pass the speculation: only frames the spec
        # machine has executed (0..frame-1) may confirm, else the
        # `_used_inputs` misprediction check is skipped for the overtaken
        # frame.  Unreachable at zero lag (slot `frame` completes during
        # that frame's own speculation), but with local lag kept (adaptive
        # policy) the buffer holds completed slots ahead of the spec — and
        # past max_frames — that must wait or never execute.
        while (
            lockstep.can_deliver()
            and lockstep.ibuf_pointer < runtime.frame
            and lockstep.ibuf_pointer < self.engine.max_frames
        ):
            frame = lockstep.ibuf_pointer
            merged = self.deliver_confirmed()
            runtime.machine.step(merged)
            checksum = runtime.machine.checksum()
            runtime.trace.record_frame(
                merged,
                checksum,
                stall=0.0,
                sync_adjust=0.0,
                lag=0,
            )
            # Digests sample the *confirmed* timeline only: speculative
            # frames (and their rollbacks) are invisible to peers.
            runtime.recovery.note_own_digest(frame, checksum)
            self.stats.confirmed_frames += 1
            used = self._used_inputs.pop(frame, None)
            if used is not None:
                self.stats.predicted_frames += 1
                if used != merged:
                    self.stats.mispredicted_frames += 1
                    if first_bad is None:
                        first_bad = frame
        return first_bad

    def sync_spec_from_shadow(self) -> None:
        """Make the speculative machine bit-identical to the shadow.

        Fast path: copy only the pages either machine has dirtied since
        their last sync (their states agree everywhere else by induction).
        Machines that do not track dirty pages fall back to a full
        ``save_state``/``load_state`` pair.
        """
        shadow = self.runtime.machine
        spec = self.spec_machine
        stats = self.stats
        shadow_pages = _dirty_pages(shadow, self._shadow_mark)
        spec_pages = _dirty_pages(spec, self._spec_mark)
        if shadow_pages is None or spec_pages is None:
            blob = shadow.save_state()
            spec.load_state(blob)
            self._full_state_size = len(blob)
        else:
            blob = shadow.save_delta(pages=set(shadow_pages) | set(spec_pages))
            spec.apply_delta(blob)
            if self._full_state_size is None:
                self._full_state_size = len(shadow.save_state())
        stats.snapshot_bytes_full += self._full_state_size
        stats.snapshot_syncs += 1
        stats.snapshot_bytes_copied += len(blob)
        self._shadow_mark = _state_mark(shadow)
        self._spec_mark = _state_mark(spec)

    def _rollback_and_replay(self, first_bad: int, now: float = 0.0) -> None:
        """Restore speculation from the shadow and replay the suffix."""
        runtime = self.runtime
        self.stats.rollbacks += 1
        copied_before = self.stats.snapshot_bytes_copied
        self.sync_spec_from_shadow()
        replay_from = self.confirmed_frontier + 1
        depth = runtime.frame - replay_from
        self.stats.max_replay_depth = max(self.stats.max_replay_depth, depth)
        runtime.metrics.on_rollback(
            depth, self.stats.snapshot_bytes_copied - copied_before
        )
        runtime.events.emit(
            "rollback",
            now,
            runtime.frame,
            depth=depth,
            **{"from": first_bad, "to": runtime.frame},
        )
        for frame in range(replay_from, runtime.frame):
            word = self._predict_input(frame)
            self._used_inputs[frame] = word
            self.spec_machine.step(word)
            self.stats.replayed_frames += 1

    def confirm_pending(self, now: float = 0.0) -> None:
        """Shadow-advance plus rollback — the per-wakeup confirmation step."""
        first_bad = self._advance_shadow()
        if first_bad is not None:
            self._rollback_and_replay(first_bad, now)

    def reseat_frontier(self) -> None:
        """Pin the frontier to the delivery pointer and void the
        speculated-word bookkeeping (after a rewind or a lockstep stint)."""
        self._confirmed_count = self.runtime.lockstep.ibuf_pointer
        self._used_inputs.clear()


def build_rollback_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
):
    """A rollback session on the simulator: :func:`build_session` with every
    site a :class:`SyncInput` part speculating :data:`SPECULATION_WINDOW`
    frames ahead (shadow + speculative machine from ``game_factory``)
    under a zero-lag default configuration."""
    machines = [(game_factory(), game_factory()) for _ in sources]
    plan = SessionPlan(
        config=config if config is not None else SyncConfig(buf_frame=0),
        assignment=InputAssignment.standard(len(sources)),
        machines=[shadow for shadow, _ in machines],
        sources=sources,
        game_id="rollback",
        max_frames=frames,
        frame_compute_time=frame_compute_time,
        seed=seed,
        consistency=[
            SyncInput(spec, SPECULATION_WINDOW) for _, spec in machines
        ],
    )
    return build_session(plan, netem)
