"""Algorithms 3 and 4 — real-time consistency (frame pacing).

* :meth:`FramePacer.end_frame` is Algorithm 3 (``EndFrameTiming``): compute
  when the current frame *should* end; if it overran, carry the debt into
  ``AdjustTimeDelta`` so following frames shorten; otherwise report how long
  to wait.  One extension: the wait itself may overshoot (a real driver
  wakes late), and :meth:`FramePacer.begin_frame` carries that the same way.
* :meth:`FramePacer.begin_frame` is Algorithm 4 (``BeginFrameTiming``): the
  slave site estimates the master's current frame from a received master
  input (``MasterFrame = LastRcvFrame[0] − BufFrame``), its arrival time
  and ``RTT/2``, and sets ``AdjustTimeDelta`` to the frame offset.
  On the master, ``SyncAdjustTimeDelta`` is always zero — the slave alone
  absorbs start-up skew, so the earlier-starting site is never penalized
  (§3.2's key design point).  Two deviations.  *Which* input and RTT the
  caller hands in: the least-delayed of the last 64, not the newest —
  all the noise in a sample is delay (``LockstepSync.master_sample``).
  And line 9 replaces the debt Algorithm 3 carried instead of adding to
  it: the offset is measured at the actual begin, so adding would count
  that debt twice; on time the debt is 0 and the two agree.

The pacer is pure state + arithmetic: drivers supply ``now`` and perform the
actual waiting, so the identical code runs in simulated and wall-clock time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.config import SyncConfig

#: Clamp on the per-frame |SyncAdjustTimeDelta|, in frames.  The paper
#: smooths start-up skew "within only a few frames"; without a clamp a huge
#: transient estimate (e.g. before RTT converges) would swing the pacer
#: violently.
SYNC_ADJUST_CLAMP_FRAMES = 3


class PacerStats:
    """Per-site pacing telemetry used by the experiment harness."""

    def __init__(self) -> None:
        self.frames = 0
        self.overruns = 0
        self.total_wait = 0.0
        self.sync_adjust_applied = 0.0
        self.sync_adjust_clamped = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class FramePacer:
    """One site's frame-timing state (Algorithms 3 and 4)."""

    def __init__(self, config: SyncConfig, site_no: int) -> None:
        self.config = config
        self.site_no = site_no
        #: AdjustTimeDelta: the carried compensation (≤ 0 after an overrun).
        self.adjust_time_delta = 0.0
        #: CurrFrameStart of the in-flight frame.
        self.curr_frame_start: Optional[float] = None
        self.stats = PacerStats()

    @property
    def is_master(self) -> bool:
        """Site 0 provides the reference speed (§3.2)."""
        return self.site_no == 0

    # ------------------------------------------------------------------
    # Algorithm 4
    # ------------------------------------------------------------------
    def begin_frame(
        self,
        now: float,
        frame: int,
        master_sample: Optional[Tuple[int, float]],
        rtt: float,
        late: float = 0.0,
    ) -> float:
        """``BeginFrameTiming()``: record the frame start; slaves rate-sync.

        ``master_sample`` is ``(LastRcvFrame[0], MasterRcvTime)`` from the
        lockstep state, or None before any master input has arrived, and
        ``rtt`` the round trip it travelled (:attr:`RttEstimator.min_rtt`);
        ``late`` is how long after its deadline the frame timer that began
        this frame fired (0 for a frame begun any other way).
        Returns the ``SyncAdjustTimeDelta`` applied (0 on the master), which
        the experiments record.
        """
        self.curr_frame_start = now
        sync_adjust = 0.0
        if (
            not self.is_master
            and self.config.master_slave_pacing
            and master_sample is not None
        ):
            last_rcv_master, master_rcv_time = master_sample
            tpf = self.config.time_per_frame
            # Line 6: the received frame has already counted local lag.
            master_frame = last_rcv_master - self.config.buf_frame
            # Line 7: frame offset converted to a time offset.
            sync_adjust = (frame - master_frame) * tpf - (
                now - (master_rcv_time - rtt / 2.0)
            )
            bound = SYNC_ADJUST_CLAMP_FRAMES * tpf
            if sync_adjust > bound:
                sync_adjust = bound
                self.stats.sync_adjust_clamped += 1
            elif sync_adjust < -bound:
                sync_adjust = -bound
                self.stats.sync_adjust_clamped += 1
            # Line 9, replacing rather than adding: the offset is taken at
            # this begin against the master's grid, so it already holds the
            # debt Algorithm 3 carried in (0 whenever the slave is on time).
            self.adjust_time_delta = sync_adjust
        else:
            # The wait's overshoot is an overrun Algorithm 3 cannot see (it
            # assumes an exact wait); carry it like lines 3-4 do.
            self.adjust_time_delta -= late
        self.stats.sync_adjust_applied += sync_adjust
        return sync_adjust

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------
    def end_frame(self, now: float) -> float:
        """``EndFrameTiming()``: return how long the driver must wait.

        Returns 0 when the frame overran (the debt is carried into
        ``AdjustTimeDelta`` for the following frames to absorb).
        """
        if self.curr_frame_start is None:
            raise RuntimeError("end_frame called before begin_frame")
        curr_frame_end = (
            self.curr_frame_start + self.config.time_per_frame + self.adjust_time_delta
        )
        self.curr_frame_start = None
        self.stats.frames += 1
        if curr_frame_end < now:
            # Lines 3–4: overran; compensate in the next frames.
            self.adjust_time_delta = curr_frame_end - now
            self.stats.overruns += 1
            return 0.0
        # Lines 6–7: on time; wait out the remainder.
        self.adjust_time_delta = 0.0
        wait = curr_frame_end - now
        self.stats.total_wait += wait
        return wait

    def end_frame_deadline(self, now: float) -> Optional[float]:
        """Algorithm 3 as an absolute deadline for timer-based drivers.

        Returns when the next frame should begin, or ``None`` when the
        frame overran and the next one must begin immediately (the debt is
        carried in ``AdjustTimeDelta`` exactly as in :meth:`end_frame`).
        """
        wait = self.end_frame(now)
        if wait > 0:
            return now + wait
        return None
