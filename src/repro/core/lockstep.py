"""Algorithm 2 — ``SyncInput`` — as a sans-IO state machine.

The paper presents ``SyncInput(I, F)`` as a blocking call that loops over
send/receive until the remote input for the current frame has arrived.  Here
the same state is factored out of the loop so it can be driven by either the
discrete-event simulator or a threaded wall-clock driver:

* :meth:`LockstepSync.buffer_local_input` — lines 1–5 (local lag buffering),
* :meth:`LockstepSync.build_sync` — lines 7–11 (the ``sd`` message),
* :meth:`LockstepSync.on_sync` — lines 13–19 (integrating ``rc``),
* :meth:`LockstepSync.can_deliver` — the line-21 exit condition,
* :meth:`LockstepSync.deliver` — lines 22–23 (advance ``IBufPointer`` and
  return the merged input).

The state machine generalizes the paper's two-site presentation to N sites:
``LastRcvFrame``/``LastAckFrame`` become per-site vectors, each peer gets
its own ``sd`` message (so ``sd[0]`` stays one ack, for that peer), and
delivery waits on every *gating* site (a site that controls at least one
input bit — observers never gate).  With ``num_sites == 2`` the behaviour
reduces exactly to the published algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import SyncConfig
from repro.core.ibuf import InputBuffer
from repro.core.inputs import InputAssignment
from repro.core.messages import DecodeError, Sync, cell_width, compact_bits
from repro.core.rtt import CLOCK_FILTER_DEPTH

#: How many master samples Algorithm 4 remembers: 64 sends are 1.28 s,
#: longer than a bursty link's delay bursts, and a 100 ppm host-clock skew
#: builds at most 0.13 ms of error over them.  The master's frame grid only
#: moves when the master itself falls behind, and the evidence for that is
#: this site's gate waiting on it (:meth:`LockstepSync.master_is_late`).
MASTER_MEMORY = 64

#: How many frames of inputs a sync message may carry at most.  Bounds
#: message size under long stalls; the unacked window is re-sent across
#: consecutive flushes.
MAX_INPUTS_PER_MESSAGE = 120


class LockstepStats:
    """Counters exposed for experiments and debugging."""

    def __init__(self) -> None:
        self.local_inputs_buffered = 0
        self.local_inputs_dropped = 0
        self.lag_changes = 0
        self.frames_delivered = 0
        self.sync_messages_sent = 0
        self.sync_messages_received = 0
        self.duplicate_inputs_received = 0
        self.out_of_window_inputs = 0
        self.inputs_sent = 0
        self.inputs_retransmitted = 0
        self.pruned_frames = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class LockstepSync:
    """Per-site lockstep synchronization state (Algorithm 2, N-site)."""

    def __init__(
        self,
        config: SyncConfig,
        site_no: int,
        assignment: InputAssignment,
        session_id: int = 0,
    ) -> None:
        if not 0 <= site_no < len(assignment):
            raise ValueError(
                f"site_no {site_no} out of range for {len(assignment)} sites"
            )
        self.config = config
        self.site_no = site_no
        self.assignment = assignment
        self.session_id = session_id
        self.num_sites = len(assignment)
        self.stats = LockstepStats()

        initial = config.buf_frame - 1
        self.ibuf = InputBuffer(self.num_sites)
        #: IBufPointer: next frame to deliver.
        self.ibuf_pointer = 0
        #: LastRcvFrame[i]: last frame up to which site i's inputs are buffered.
        self.last_rcv_frame: List[int] = [initial] * self.num_sites
        #: LastAckFrame[i]: last of *our* frames that site i has acknowledged.
        self.last_ack_frame: List[int] = [initial] * self.num_sites
        #: Sites whose inputs gate delivery (control at least one bit).
        self._gating_sites = [
            s for s in assignment.gating_sites() if s != site_no
        ]
        #: First frame at which each site's input is required (late join).
        self.gate_from: List[int] = [0] * self.num_sites
        #: Peers that are not absent — who gets sync traffic and whose acks
        #: hold pruning back; rebuilt only where ``gate_from`` changes.
        self._present_peers = [s for s in range(self.num_sites) if s != site_no]
        #: Algorithm 4's (LastRcvFrame[0], MasterRcvTime): the least-delayed
        #: of the newest input-advancing messages from site 0.  All that lies
        #: between the master beginning a frame and its input arriving (send
        #: phase, slice delay, queueing) is *delay*, so the sample that puts
        #: the master's frame 0 earliest is the truest.
        self.master_sample: Optional[Tuple[int, float]] = None
        #: The window it is chosen from: (frame-0 origin, sample) pairs.
        self._master_window: Deque[tuple] = deque(maxlen=MASTER_MEMORY)
        #: Samples left before a window shortened by a gate block widens
        #: back to ``MASTER_MEMORY`` (0: it is wide).
        self._short_memory_left = 0
        #: Current local lag in frames (changes only under adaptive lag).
        self._current_buf = config.buf_frame
        #: Pad state used to fill slots when the lag grows.
        self._last_local_bits = 0
        #: Highest frame of our own inputs ever put on the wire (for the
        #: retransmission counter).
        self._highest_sent_frame = initial
        #: False while a late joiner or resumer waits for its snapshot, whose
        #: history peers already ack: :meth:`on_sync` bounds acks once seated.
        self.seated = True
        #: Per-peer: set whenever a sync message arrives from that peer, so
        #: the next flush re-acks even if nothing else changed (keeps a
        #: lost-ack peer from retransmitting forever).
        self._ack_dirty: Dict[int, bool] = {}
        self._last_sent_acks: Dict[int, List[int]] = {}
        #: Incremental encode cache: our own inputs, already bit-compacted
        #: against ``_cell_mask`` into fixed-width little-endian cells.  Each
        #: buffered frame appends one cell; every outbound SYNC window is a
        #: contiguous slice, so per-tick serialization is a bytearray slice
        #: instead of re-packing the whole unacked range (ISSUE-7 tentpole).
        #: ``_enc_base`` is the frame of cell 0, and the cells run through
        #: our ``last_rcv_frame``.  Invariant: the base never exceeds the
        #: first own frame a peer has not acked — :meth:`_seat` restarts the
        #: cache there and :meth:`_trim_encode_cache` cuts only below the
        #: prune floor — so every SYNC window is a slice of the cache.
        self._cell_mask = assignment.mask(site_no)
        self._cell_width = cell_width(self._cell_mask)
        self._enc_base = initial + 1
        self._enc_cells = bytearray()
        #: Desync recovery (FEATURE_DIGEST): pruning never passes this
        #: frame, so a resync restore at the last digest-agreed frame can
        #: re-deliver everything after it from the local buffer.  The
        #: engine advances it as digest agreement advances; ``None`` (the
        #: default) leaves the paper's pruning rule untouched.
        self.retain_floor: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_observer(self) -> bool:
        """True when this site controls no input bits."""
        return self._cell_mask == 0

    def waiting_on(self) -> List[int]:
        """Gating sites whose input for the next frame is still missing.

        Includes *ourselves* when we control bits: delivering a frame
        before our own input is placed would merge without bits that peers
        will later receive — a guaranteed divergence.  The normal frame
        loop never trips this (it buffers before delivering and the lag is
        positive), but greedy consumers and adaptive-lag drop phases can.
        """
        pointer = self.ibuf_pointer
        missing = [
            s
            for s in self._gating_sites
            if pointer >= self.gate_from[s] and self.last_rcv_frame[s] < pointer
        ]
        if not self.is_observer and self.last_rcv_frame[self.site_no] < pointer:
            missing.append(self.site_no)
        return missing

    # ------------------------------------------------------------------
    # Algorithm 2, lines 1–5: local-lag buffering
    # ------------------------------------------------------------------
    @property
    def local_lag_frames(self) -> int:
        """The lag currently applied to this site's inputs."""
        return self._current_buf

    def lag_drain_remaining(self, frame: int) -> int:
        """Local input frames still to be dropped after a lag shrink.

        After ``set_local_lag`` shrinks the lag, the previously buffered
        window keeps the next few frames' slots filled; each such frame's
        fresh input is dropped until the frame counter catches up.  This
        reports how many drops are still owed at ``frame`` — zero once the
        new (shorter) mapping is fully in effect.  Used by the rollback
        hand-over tests and drain telemetry.
        """
        return max(
            0, self.last_rcv_frame[self.site_no] + 1 - (frame + self._current_buf)
        )

    def set_local_lag(self, buf_frames: int) -> None:
        """Change this site's local lag from the next buffered frame on.

        Lag is a purely local choice: it decides which future frame slot
        each local input occupies, and the slot mapping below stays total
        (no slot is ever skipped) and single-valued (no slot is filled
        twice), so peers observe only a different input latency — never an
        inconsistency.  Growing lag pads the intervening slots by repeating
        the last input; shrinking lag drops a few local input frames.
        """
        if buf_frames < 0:
            raise ValueError(f"lag must be >= 0 frames, got {buf_frames}")
        if buf_frames != self._current_buf:
            self._current_buf = buf_frames
            self.stats.lag_changes += 1

    def buffer_local_input(self, frame: int, local_bits: int) -> None:
        """Buffer this site's partial input for ``frame`` at its lag slot.

        With the paper's fixed lag the slot is always ``frame + BufFrame``
        (lines 1–5 verbatim).  Observers control no bits and buffer
        nothing — their partial input is identically empty and peers never
        wait for it.
        """
        if self.is_observer:
            return
        restricted = self.assignment.restrict(local_bits, self.site_no)
        target = frame + self._current_buf
        next_slot = self.last_rcv_frame[self.site_no] + 1
        if target < next_slot:
            # Lag shrank: this input's slot is already filled; drop it and
            # let the frame counter catch up to the new, shorter lag.
            self.stats.local_inputs_dropped += 1
            return
        # Lag grew (or steady state): pad any gap by holding the previous
        # pad state, then place this input.  The encode cache appends one
        # cell per slot in lockstep with the buffer, so it stays contiguous
        # from ``_enc_base`` through our ``last_rcv_frame``.
        if target > next_slot:
            pad_cell = self._cell(self._last_local_bits)
            for slot in range(next_slot, target):
                self.ibuf.put(slot, self.site_no, self._last_local_bits)
                self._enc_cells += pad_cell
        self.ibuf.put(target, self.site_no, restricted)
        self._enc_cells += self._cell(restricted)
        self._last_local_bits = restricted
        self.last_rcv_frame[self.site_no] = target
        self.stats.local_inputs_buffered += 1

    # ------------------------------------------------------------------
    # Algorithm 2, lines 7–11: build the outbound sd messages
    # ------------------------------------------------------------------
    def build_sync_for(self, peer: int, force: bool = False) -> Optional[Sync]:
        """The next ``sd`` message for ``peer``, or None when there is no news.

        "New info" (line 7) is either local inputs the peer has not
        acknowledged or a ``LastRcvFrame`` vector it has not been sent
        since; ``force`` sends regardless (keepalives).  The message itself
        carries only the peer's entry of that vector.  Windows are per-peer:
        a slow or absent peer must never pin the window other peers receive.
        """
        first, last = self._unacked_window(peer)
        has_inputs = first <= last
        acks = list(self.last_rcv_frame)
        acks_changed = self._last_sent_acks.get(peer) != acks
        if not (
            has_inputs or acks_changed or self._ack_dirty.get(peer) or force
        ):
            return None
        self._last_sent_acks[peer] = acks
        ack = acks[peer]

        if has_inputs:
            last = min(last, first + MAX_INPUTS_PER_MESSAGE - 1)
            message = Sync(
                self.site_no,
                self.session_id,
                ack,
                first,
                self._packed_window(first, last),
                last - first + 1,
                self._cell_mask,
            )
        else:
            message = Sync(self.site_no, self.session_id, ack, first)
        self._record_send(peer, message)
        return message

    def build_all(self, force: bool = False) -> Dict[int, Sync]:
        """One flush: per-peer ``sd`` messages (absent peers are skipped)."""
        out: Dict[int, Sync] = {}
        for peer in self._present_peers:
            message = self.build_sync_for(peer, force=force)
            if message is not None:
                out[peer] = message
        return out

    def _unacked_window(self, peer: int) -> Tuple[int, int]:
        """(sd[1], sd[2]): oldest frame ``peer`` has not acked → newest buffered."""
        if self.is_observer:
            return (0, -1)
        first = self.last_ack_frame[peer] + 1
        # Never reach below the prune floor (those frames are acked by all).
        first = max(first, self.ibuf.floor)
        last = self.last_rcv_frame[self.site_no]
        return (first, last)

    def _packed_window(self, first: int, last: int) -> bytes:
        """Cells for frames ``first..last`` as one cache slice.

        Returns a copy (not a memoryview): the caller may hold the message
        across further :meth:`buffer_local_input` appends, and a live view
        would pin the bytearray against resizing.  A window outside the
        cache breaks the encode-cache invariant and raises.
        """
        base, width = self._enc_base, self._cell_width
        start, end = (first - base) * width, (last - base + 1) * width
        if start < 0 or end > len(self._enc_cells):
            raise RuntimeError(
                f"site {self.site_no}: SYNC window {first}..{last} outside "
                f"the encode cache {base}..{base + len(self._enc_cells) // width - 1}"
            )
        return bytes(self._enc_cells[start:end])

    def _cell(self, bits: int) -> bytes:
        """One encode-cache cell: ``bits`` compacted against ``_cell_mask``."""
        return compact_bits(bits, self._cell_mask).to_bytes(self._cell_width, "little")

    def _record_send(self, peer: int, message: Sync) -> None:
        self.stats.sync_messages_sent += 1
        count = message.input_count
        self.stats.inputs_sent += count
        if count:
            already_sent = max(
                0, self._highest_sent_frame - message.first_frame + 1
            )
            self.stats.inputs_retransmitted += min(already_sent, count)
            self._highest_sent_frame = max(
                self._highest_sent_frame, message.last_frame
            )
        self._ack_dirty[peer] = False

    # ------------------------------------------------------------------
    # Algorithm 2, lines 13–19: integrate a received rc message
    # ------------------------------------------------------------------
    def on_sync(self, message: Sync, arrived_at: float) -> None:
        """Fold a received sync message into the buffer and counters.

        Raises :class:`DecodeError`, changing nothing, for what no correct
        peer sends: an ack past our last buffered frame (once seated), or
        an input contradicting a held one.
        """
        if message.session_id != self.session_id:
            return  # stray datagram from another session
        sender = message.sender_site
        if not 0 <= sender < self.num_sites or sender == self.site_no:
            return
        if message.needs_mask:
            # Decoded with the implied-mask flag: bind the cells to the
            # sender's assignment mask (raises DecodeError on a mismatch).
            message.resolve_input_mask(self.assignment.mask(sender))
        ack = message.ack
        own = self.last_rcv_frame[self.site_no]
        if ack > own and self.seated:
            raise DecodeError(
                f"SYNC from site {sender} acks frame {ack}, past our last "
                f"buffered frame {own}"
            )
        # Lines 13–16: buffer the window and advance LastRcvFrame[sender]
        # only if it is contiguous with what we hold (a gap would ack
        # frames never received), and at most MAX_INPUTS_PER_MESSAGE past
        # it: no correct window reaches further.  The window that closes a
        # gap carries its cells again, so buffering a gap window would only
        # let a forged one grow the buffer or take the real inputs' slots.
        received = self.last_rcv_frame[sender]
        first = message.first_frame
        last = min(message.last_frame, received + MAX_INPUTS_PER_MESSAGE)
        contiguous = first <= received + 1
        duplicates = 0
        if contiguous and last >= first:
            try:
                duplicates = self.ibuf.put_window(
                    first, sender, message.inputs[: last - first + 1]
                )
            except ValueError as exc:
                raise DecodeError(f"SYNC from site {sender}: {exc}") from None
        self.stats.sync_messages_received += 1
        self.stats.duplicate_inputs_received += duplicates
        self._ack_dirty[sender] = True
        if message.input_count:
            if not contiguous:
                self.stats.out_of_window_inputs += 1
            elif last > received:
                self.last_rcv_frame[sender] = last
                if sender == 0 and self.site_no != 0:
                    self._note_master_sample(last, arrived_at)

        # Lines 17–19: the sender's ack for *our* inputs.
        if ack > self.last_ack_frame[sender]:
            self.last_ack_frame[sender] = ack

        self._prune()

    def _note_master_sample(self, last_rcv: int, arrived_at: float) -> None:
        """Window one master sample; re-pick the least-delayed.

        The input sits at the lag in force (both sites size theirs from the
        same path) while Algorithm 4 line 6 subtracts the configured
        ``BufFrame``: the frame is stored as that line expects it, so a lag
        change leaves no frame multiples in the window."""
        last_rcv += self.config.buf_frame - self._current_buf
        origin = arrived_at - last_rcv * self.config.time_per_frame
        window = self._master_window
        window.append((origin, (last_rcv, arrived_at)))
        if self._short_memory_left:
            self._short_memory_left -= 1
            if not self._short_memory_left:
                self._master_window = window = deque(window, maxlen=MASTER_MEMORY)
        self.master_sample = min(window)[1]

    def master_is_late(self) -> None:
        """This site's gate blocked on the master's input: the master is
        later than the long memory says (it really slowed down).  Keep the
        newest ``CLOCK_FILTER_DEPTH`` samples until ``MASTER_MEMORY``
        arrive with no further block, then remember long again."""
        self._short_memory_left = MASTER_MEMORY
        self._master_window = window = deque(
            self._master_window, maxlen=CLOCK_FILTER_DEPTH
        )
        if window:
            self.master_sample = min(window)[1]

    def forget_master_samples(self) -> None:
        """The master's schedule moved (an outage, a restored state): origins
        from before it would hold this site ahead until they aged out."""
        self._master_window.clear()
        self.master_sample = None

    def _prune(self) -> None:
        """Drop buffer entries that can never be referenced again.

        A frame is dead once it has been delivered locally *and* every
        present peer has acknowledged our input for it (so no retransmission
        needs it).  Absent peers (late joiners) never gate pruning: they
        catch up from a savestate, not from frame-0 inputs.
        """
        peers = self._present_peers
        if peers and self._cell_mask:
            acked = self.last_ack_frame
            min_acked = min([acked[s] for s in peers])
        else:
            min_acked = self.ibuf_pointer - 1
        floor = min(self.ibuf_pointer, min_acked + 1)
        if self.retain_floor is not None and floor > self.retain_floor:
            floor = self.retain_floor
        self.stats.pruned_frames += self.ibuf.prune_below(floor)
        self._trim_encode_cache(floor)

    def _trim_encode_cache(self, floor: int) -> None:
        """Drop cache cells below ``floor`` once a chunk is worth freeing.

        Amortized: a del-from-front is O(len), so trim in ~4 KiB chunks
        rather than per ack advance.
        """
        base, width = self._enc_base, self._cell_width
        if floor <= base or not width:
            return
        cut = min(floor - base, len(self._enc_cells) // width)
        if cut * width >= 4096:
            del self._enc_cells[: cut * width]
            self._enc_base = base + cut

    # ------------------------------------------------------------------
    # Algorithm 2, lines 21–23: delivery
    # ------------------------------------------------------------------
    def can_deliver(self) -> bool:
        """Line 21 exit condition: inputs for the next frame are complete."""
        return not self.waiting_on()

    def deliver(self, or_none: bool = False) -> Optional[int]:
        """Lines 22–23: advance ``IBufPointer``, return the merged input.

        The gate is evaluated once, here.  A frame that is not ready is an
        error — except for the frame loop's own poll, which passes
        ``or_none`` and gets None while a gating site's input is missing.
        For the first ``BufFrame`` frames this returns empty (zero) inputs,
        exactly as the paper describes.
        """
        missing = self.waiting_on()
        if missing:
            if or_none:
                return None
            raise RuntimeError(
                f"site {self.site_no}: frame {self.ibuf_pointer} not ready; "
                f"waiting on sites {missing}"
            )
        merged = self.ibuf.merged(self.ibuf_pointer, self.assignment)
        self.ibuf_pointer += 1
        self.stats.frames_delivered += 1
        self._prune()
        return merged

    # ------------------------------------------------------------------
    # Late-join support (journal extension)
    # ------------------------------------------------------------------
    #: Sentinel gate for a site that has not joined yet.
    NEVER = 1 << 31

    def mark_absent(self, site: int) -> None:
        """Declare that ``site`` has not joined yet.

        Absent sites receive no sync traffic, never gate delivery and never
        gate pruning; :meth:`admit_site` makes them present again.
        """
        if site == self.site_no:
            raise ValueError("a site cannot mark itself absent")
        self.admit_site(site, self.NEVER)

    def is_absent(self, site: int) -> bool:
        return self.gate_from[site] >= self.NEVER

    def admit_site(self, site: int, first_gating_frame: int, ack_hint: Optional[int] = None) -> None:
        """Declare that ``site``'s inputs gate delivery from ``first_gating_frame``.

        Frames before it are treated as if the site's partial input were
        empty.  Used for late-joining players: mark the slot ``NEVER`` at
        session start, then set the real gate when the joiner's snapshot is
        served.  Lowering the gate below frames we already delivered would
        rewrite history (we merged those frames without the site's input),
        so that is rejected.
        """
        if not 0 <= site < self.num_sites:
            raise ValueError(f"site {site} out of range")
        if first_gating_frame < self.gate_from[site] and (
            first_gating_frame < self.ibuf_pointer
        ):
            raise ValueError(
                f"cannot gate site {site} from frame {first_gating_frame}: "
                f"already delivered through {self.ibuf_pointer - 1} without it"
            )
        self.gate_from[site] = first_gating_frame
        self._present_peers = [
            s
            for s in range(self.num_sites)
            if s != self.site_no and not self.is_absent(s)
        ]
        if first_gating_frame < self.NEVER:
            # Frames before the gate are the joiner's *virtual* (empty)
            # input history; treat them as received so the contiguity guard
            # accepts its first real window at ``first_gating_frame``.
            self.last_rcv_frame[site] = max(
                self.last_rcv_frame[site], first_gating_frame - 1
            )
        if ack_hint is not None and ack_hint > self.last_ack_frame[site]:
            # The joiner is known to hold a savestate through ``ack_hint``;
            # start its retransmission window there instead of frame 0.
            self.last_ack_frame[site] = ack_hint

    def seed_from_snapshot(
        self, snapshot_frame: int, backlog: Optional[List[List[int]]] = None
    ) -> None:
        """Initialize a late joiner whose machine state is at ``snapshot_frame``.

        The joiner resumes delivery at ``snapshot_frame + 1``.  ``backlog``
        (from the donor's :class:`~repro.core.messages.StateSnapshot`) seeds
        each peer's inputs for the frames the donor had buffered beyond the
        snapshot — frames other peers may have pruned already.  Everything
        later arrives via the normal retransmission path.

        The joiner's *own* input history is virtual: frames up to
        ``snapshot_frame + BufFrame`` are implicitly empty (peers gate it
        from ``snapshot_frame + 1 + BufFrame``), so the receive/ack vectors
        start past that virtual history to keep retransmission windows
        well-formed.
        """
        self._seat(snapshot_frame, snapshot_frame + self._current_buf, backlog)

    def rewind_delivery(self, frame: int) -> None:
        """Move the delivery pointer back to re-deliver from ``frame`` on.

        The desync-recovery rewind: after restoring a snapshot at the last
        digest-agreed frame, delivery restarts at the frame after it.  The
        buffered inputs are still present — :attr:`retain_floor` (which the
        engine keeps at the digest agreement point) prevented pruning —
        so this only moves the pointer; receive/ack vectors, the encode
        cache and every peer's view of *our* inputs are untouched (our own
        input history did not change, only our machine state did).
        """
        target = frame + 1
        if target > self.ibuf_pointer:
            raise ValueError(
                f"rewind_delivery({frame}) is ahead of the delivery "
                f"pointer {self.ibuf_pointer}"
            )
        if target < self.ibuf.floor:
            raise ValueError(
                f"cannot rewind to frame {target}: inputs below "
                f"{self.ibuf.floor} were pruned (retain floor not held?)"
            )
        self.ibuf_pointer = target

    def resume_from_snapshot(
        self, snapshot_frame: int, backlog: Optional[List[List[int]]] = None
    ) -> None:
        """Re-seed a *returning* site from its donor's snapshot.

        Differs from :meth:`seed_from_snapshot` in one crucial way: the
        returning site had a real input history.  The donor stalled at
        ``snapshot_frame + 1``, which means it received our inputs exactly
        through ``snapshot_frame`` — so peers' ``last_ack_frame`` is pinned
        at the snapshot (not past a virtual history), leaving our slots
        ``snapshot_frame + 1 .. snapshot_frame + BufFrame`` *unacked*.  The
        caller re-buffers those own inputs (deterministic sources replay
        them bit-identically) and the ordinary 20 ms pump retransmits the
        window, unblocking the donor's gate.
        """
        self._seat(snapshot_frame, snapshot_frame, backlog)

    def _seat(
        self,
        snapshot_frame: int,
        own_history: int,
        backlog: Optional[List[List[int]]],
    ) -> None:
        """Deliver from ``snapshot_frame + 1``, count our own inputs as held
        and acked through ``own_history``, and every peer's through the
        snapshot plus whatever ``backlog`` carries for it."""
        self.seated = True
        self.ibuf_pointer = snapshot_frame + 1
        self.ibuf.prune_below(snapshot_frame + 1)
        self.forget_master_samples()
        self.last_rcv_frame[self.site_no] = max(
            self.last_rcv_frame[self.site_no], own_history
        )
        for site in range(self.num_sites):
            if site != self.site_no:
                self.last_rcv_frame[site] = max(
                    self.last_rcv_frame[site], snapshot_frame
                )
                self.last_ack_frame[site] = max(
                    self.last_ack_frame[site], own_history
                )
        # Restart the encode cache at the first own frame a peer has not
        # acked (never past our next slot), re-encoding what is buffered
        # from there: no window reaches below it.
        own = self.last_rcv_frame[self.site_no]
        acked = min(
            (self.last_ack_frame[s] for s in range(self.num_sites) if s != self.site_no),
            default=own,
        )
        self._enc_base = min(max(acked + 1, self.ibuf.floor), own + 1)
        self._enc_cells = bytearray().join(
            map(self._cell, self.ibuf.range_for(self.site_no, self._enc_base, own))
        )
        for site, inputs in enumerate(backlog or ()):
            if site == self.site_no or site >= self.num_sites:
                continue
            for offset, partial in enumerate(inputs):
                self.ibuf.put(snapshot_frame + 1 + offset, site, partial)
            if inputs:
                self.last_rcv_frame[site] = max(
                    self.last_rcv_frame[site], snapshot_frame + len(inputs)
                )

