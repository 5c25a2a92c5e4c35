"""Timewarp/rollback synchronization — the road the paper did not take.

§5: *"Timewarp needs to rollback application states, which may be used in
realtime systems if the costs of rolling back are not too high.  It is not
applicable for solving our problem because rolling back states of a
distributed game without semantic knowledge can be expensive."*

The Machine contract already gives us game-transparent savestates, so the
claim is measurable.  A site whose consistency part is :class:`Rollback`
plays with **zero local lag**:

* local inputs land in their own frame's slot (``BufFrame = 0``),
* the *speculative* machine executes every frame immediately, guessing
  missing remote inputs through a pluggable :class:`InputPredictor`
  (hold-last-confirmed, repeat-last-heard, or the per-game heuristic that
  decays impulse buttons — see :func:`make_predictor`),
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

Logical consistency is *defined* by the shadow: its trace is what the
consistency checker verifies, and it is byte-identical to what a lockstep
run would produce.  What rollback buys is responsiveness (0 ms input
latency instead of the paper's 100 ms); what it costs is exactly the
replay work measured by :class:`RollbackStats` — the quantity the paper's
argument hinges on.

Reliable input distribution, acks, retransmission and pruning are all
reused unchanged from :class:`~repro.core.lockstep.LockstepSync`; the
part only replaces the SyncInput gate (speculation-window check instead
of delivery) and the commit (speculative step instead of
``run_transition``), and keeps the engine in its catch-up phase until
the in-flight frames are confirmed, before the ordinary linger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import SyncConfig
from repro.core.engine import GameMachine, PHASE_CATCHUP, SiteEngine
from repro.core.inputs import BITS_PER_PLAYER, InputAssignment, InputSource
from repro.core.lockstep import Lockstep
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
    """Strategy for guessing a site's not-yet-received pad state.

    The engine feeds every input it learns through :meth:`observe` —
    confirmed (delivered in lockstep order) or merely received (present
    in the buffer ahead of the confirmation frontier) — and asks
    :meth:`predict` for frames it must speculate past.  Predictions only
    affect replay cost, never consistency: the confirmed shadow machine
    defines the session outcome whatever the predictor returns.
    """

    name = "base"

    def __init__(self) -> None:
        #: Newest confirmed (frame, bits) per site.
        self._confirmed: Dict[int, Tuple[int, int]] = {}
        #: Newest known (frame, bits) per site, received-but-unconfirmed
        #: values included.
        self._seen: Dict[int, Tuple[int, int]] = {}

    def observe(self, site: int, frame: int, bits: int, confirmed: bool = True) -> None:
        newest = self._seen.get(site)
        if newest is None or frame >= newest[0]:
            self._seen[site] = (frame, bits)
        if confirmed:
            previous = self._confirmed.get(site)
            if previous is None or frame >= previous[0]:
                self._confirmed[site] = (frame, bits)

    def predict(self, site: int, frame: int) -> int:
        raise NotImplementedError


class NaivePredictor(InputPredictor):
    """Hold each site's last *confirmed* pad state (the original scheme)."""

    name = "naive"

    def predict(self, site: int, frame: int) -> int:
        entry = self._confirmed.get(site)
        return entry[1] if entry is not None else 0


class RepeatLastPredictor(InputPredictor):
    """Repeat the newest pad state heard from the site, confirmed or not.

    Inputs regularly arrive ahead of the confirmation frontier (they wait
    on another site's gap, or on our own flush); repeating the freshest
    value instead of the last confirmed one shaves the staleness window.
    """

    name = "repeat-last"

    def predict(self, site: int, frame: int) -> int:
        entry = self._seen.get(site)
        return entry[1] if entry is not None else 0


class HeuristicPredictor(RepeatLastPredictor):
    """Repeat-last with per-game impulse decay.

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

    name = "heuristic"

    def __init__(self, impulse_hold: int = 1) -> None:
        super().__init__()
        self.impulse_hold = impulse_hold

    def predict(self, site: int, frame: int) -> int:
        entry = self._seen.get(site)
        if entry is None:
            return 0
        observed_frame, bits = entry
        if frame - observed_frame > self.impulse_hold:
            bits &= _directional_mask(bits)
        return bits

    @classmethod
    def for_game(cls, game_id: Optional[str]) -> "HeuristicPredictor":
        hold = GAME_IMPULSE_HOLD.get(game_id or "", 1)
        return cls(impulse_hold=hold)


#: Per-game tuning of the heuristic predictor's impulse extrapolation
#: depth: frames a pressed button is still predicted held past its last
#: observation, i.e. typical tap length minus one.  Tap-driven games
#: want short holds; charge/hold games longer ones.  The predictor floor
#: in ``tests/integration/test_session_gates.py`` is the instrument for
#: tuning these.
GAME_IMPULSE_HOLD: Dict[str, int] = {
    "counter": 1,
    "pong": 1,
    "tankduel": 2,
    "brawler": 1,
}

#: Registry for name-based predictor selection (CLI and tests).
PREDICTORS = {
    NaivePredictor.name: NaivePredictor,
    RepeatLastPredictor.name: RepeatLastPredictor,
    HeuristicPredictor.name: HeuristicPredictor,
}

PredictorSpec = Union[str, InputPredictor, None]


def make_predictor(spec: PredictorSpec, game_id: Optional[str] = None) -> InputPredictor:
    """Resolve a predictor from a name, an instance, or None (default).

    The default is the per-game heuristic — the measured best on
    realistic tap/hold input (see the predictor floor in the session
    gate tests); pass ``"naive"`` for the original hold-last-confirmed
    behaviour.
    """
    if isinstance(spec, InputPredictor):
        return spec
    if spec is None or spec == HeuristicPredictor.name:
        return HeuristicPredictor.for_game(game_id)
    klass = PREDICTORS.get(spec)
    if klass is None:
        raise ValueError(
            f"unknown predictor {spec!r}; choose from {sorted(PREDICTORS)}"
        )
    return klass()


class RollbackStats:
    """Cost accounting for the speculation machinery."""

    def __init__(self) -> None:
        self.speculative_frames = 0
        self.confirmed_frames = 0
        #: Confirmed frames whose input word had been speculated (the
        #: denominator of the hit ratio).
        self.predicted_frames = 0
        self.mispredicted_frames = 0
        #: Confirmed frames whose speculation held and that precede the
        #: first misprediction of their confirmation batch: the only frames
        #: a one-machine design (restore and replay from the first
        #: misprediction) would not execute again.
        self.prefix_held_frames = 0
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


class Rollback(Lockstep):
    """The consistency part that speculates ahead with rollback instead of
    waiting out local lag.

    * ``spec_machine`` — a second, identically-constructed machine used for
      speculation (``runtime.machine`` stays the confirmed shadow),
    * ``speculation_window`` — how many frames speculation may run ahead of
      confirmation before the site blocks (bounds replay cost and keeps a
      network partition from spinning the CPU),
    * ``predictor`` — an :class:`InputPredictor` (or registry name) that
      guesses not-yet-received remote inputs.

    A handed-over session may carry local lag (a non-zero ``buf_frame``):
    :meth:`attach` calls ``set_local_lag(0)`` — zero input latency is
    rollback's point — and the lockstep slot mapping drains the
    already-buffered lag window naturally (new local inputs targeting
    already-filled slots are dropped until the frame counter catches up).
    """

    def __init__(
        self,
        spec_machine: GameMachine,
        speculation_window: int = 60,
        predictor: PredictorSpec = None,
    ) -> None:
        self.spec_machine = spec_machine
        self.speculation_window = speculation_window
        #: Resolved to an :class:`InputPredictor` once attached (the
        #: default heuristic is per game, and the runtime knows the game).
        self.predictor = predictor
        self.stats = RollbackStats()
        self._full_state_size: Optional[int] = None
        #: Input word the speculative machine used per frame.
        self._used_inputs: Dict[int, int] = {}
        #: Count of frames delivered to the shadow (frontier + 1).
        self._confirmed_count = 0

    def bind(self, engine: SiteEngine) -> None:
        """Everything :meth:`attach` does except claiming the lag (the
        adaptive part manages lag itself)."""
        super().attach(engine)
        runtime = engine.runtime
        self.predictor = make_predictor(self.predictor, runtime.game_id)
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

    def attach(self, engine: SiteEngine) -> None:
        self.bind(engine)
        if engine.runtime.config.buf_frame != 0:
            # A hand-over from laggy lockstep: zero the lag now and let
            # the slot mapping drain the pre-buffered window (the virtual
            # empty history for a fresh session, the real one otherwise).
            engine.runtime.lockstep.set_local_lag(0)

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
                        predictor.observe(site, newest, heard, confirmed=False)
                value = predictor.predict(site, frame)
            else:
                predictor.observe(site, frame, value, confirmed=False)
            partials[site] = value
        return lockstep.assignment.merge(partials)

    def deliver_confirmed(self) -> int:
        """Deliver the next confirmed frame's merged input, feeding each
        site's confirmed pad state to the predictor before pruning
        discards it (also the adaptive part's lockstep-mode gate, which
        keeps predictor and frontier warm for the next switch)."""
        lockstep = self.runtime.lockstep
        frame = lockstep.ibuf_pointer
        for site in range(lockstep.num_sites):
            value = lockstep.ibuf.get(frame, site)
            if value is not None:
                self.predictor.observe(site, frame, value, confirmed=True)
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
                elif first_bad is None:
                    self.stats.prefix_held_frames += 1
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

    # ------------------------------------------------------------------
    # Desync recovery: the rewind lands on the *shadow* timeline (the one
    # digests sample); speculation stays frozen at the frontier and is
    # rebuilt from the healed shadow when the episode closes.
    # ------------------------------------------------------------------
    def resync_restore(self, state: bytes, anchor: int, now: float) -> None:
        runtime = self.runtime
        # Begin times are indexed by *speculative* frames, which do not
        # rewind — preserve them across the committed-row truncation.
        begins = runtime.trace.begin_times[:]
        runtime.machine.load_state(bytes(state))  # the confirmed shadow
        runtime.trace.truncate_after(anchor)
        runtime.trace.begin_times[:] = begins
        runtime.lockstep.rewind_delivery(anchor)
        # Speculated-word bookkeeping for the replayed window is void; the
        # spec rebuild in finish_resync re-records what it actually uses.
        self.reseat_frontier()

    def resync_progress(self, now: float) -> None:
        # Re-confirm the shadow from retained inputs; _used_inputs is
        # empty for the replayed window, so no spec rollback fires here.
        self.confirm_pending(now)

    def finish_resync(self, now: float) -> None:
        # The speculative machine ran (and kept presenting) the divergent
        # timeline; rebuild it from the healed shadow and re-speculate the
        # unconfirmed suffix before the frame loop thaws.
        self._rollback_and_replay(self.confirmed_frontier + 1, now)

    # ------------------------------------------------------------------
    # The frame-loop steps
    # ------------------------------------------------------------------
    def try_ready(self, now: float) -> Optional[int]:
        """Replace SyncInput's delivery gate with the speculation-window
        bound; the returned word is the zero-lag *prediction*."""
        self.confirm_pending(now)
        runtime = self.runtime
        if runtime.frame - self.confirmed_frontier > self.speculation_window:
            self.stats.speculation_stalls += 1
            return None
        word = self._predict_input(runtime.frame)
        self._used_inputs[runtime.frame] = word
        return word

    def commit(
        self, merged: int, stall: float, sync_adjust: float, now: float
    ) -> None:
        """Execute the current frame speculatively, with zero input lag."""
        del stall, sync_adjust  # recorded via the shadow, not here
        self.spec_machine.step(merged)
        self.stats.speculative_frames += 1
        self.runtime.frame += 1

    def settled(self, now: float) -> bool:
        """True once the shadow has confirmed every speculated frame.  While
        the engine re-checks it on every catch-up pump this is also the
        confirmation step (at the moment the last frame commits it must
        not be: confirming there would race that pump's flush)."""
        if self.engine.phase == PHASE_CATCHUP:
            self.confirm_pending(now)
        return self.confirmed_frontier >= self.engine.max_frames - 1


def build_rollback_session(
    game_factory,
    sources: List[InputSource],
    netem,
    frames: int = 600,
    seed: int = 7,
    speculation_window: int = 60,
    frame_compute_time: float = 0.002,
    config: Optional[SyncConfig] = None,
    predictor: PredictorSpec = None,
):
    """A rollback session on the simulator: :func:`build_session` with every
    site a :class:`Rollback` part (shadow + speculative machine from
    ``game_factory``) under a zero-lag default configuration."""
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
            Rollback(spec, speculation_window, predictor) for _, spec in machines
        ],
    )
    return build_session(plan, netem)
