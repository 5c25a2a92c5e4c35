"""``IBuf`` — the frame-indexed input buffer of Algorithm 2.

The paper assumes "a buffer of unlimited size ... for simplicity in
presentation"; a real session of an hour at 60 FPS would accumulate 216 000
entries per site, so this implementation is sparse (dict-backed) and prunes
entries that can never be needed again: a frame's inputs may be dropped once
the frame has been **delivered locally** and every peer has **acknowledged**
receiving our partial input for it (so no retransmission can reference it).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class InputBuffer:
    """Per-session input buffer holding each site's partial input per frame.

    ``IBuf[f](SET[i])`` from the paper becomes ``get(frame, site)``.
    Writes are first-wins: retransmitted duplicates of a partial input are
    ignored ("only one copy of them will be kept in the buffer", §3.1), which
    also makes delivery idempotent under packet duplication.
    """

    def __init__(self, num_sites: int) -> None:
        if num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        self._num_sites = num_sites
        self._slots: Dict[int, List[Optional[int]]] = {}
        self._floor = 0  # frames below this have been pruned

    # ------------------------------------------------------------------
    @property
    def num_sites(self) -> int:
        return self._num_sites

    @property
    def floor(self) -> int:
        """Lowest frame still retrievable."""
        return self._floor

    def __len__(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------
    def put(self, frame: int, site: int, partial: int) -> bool:
        """Store ``site``'s partial input for ``frame``.

        Returns True if stored, False if it was a duplicate (already
        present) or below the prune floor.  Storing a *conflicting* value
        for an occupied slot raises: under a correct protocol a site never
        changes its input for a frame, so a conflict means corruption.
        """
        return not self.put_window(frame, site, [partial])

    def put_window(self, first: int, site: int, partials: List[int]) -> int:
        """:meth:`put` for frames ``first, first + 1, …``, all or nothing:
        a conflict raises before any value is stored.  Returns how many
        were duplicates."""
        slots = self._slots
        fresh = []
        for frame, partial in enumerate(partials, first):
            slot = slots.get(frame)
            if slot is None:
                if frame >= self._floor:
                    fresh.append((frame, partial))
            elif slot[site] is None:
                fresh.append((frame, partial))
            elif slot[site] != partial:
                raise ValueError(
                    f"conflicting input for frame {frame} site {site}: "
                    f"had {slot[site]:#x}, got {partial:#x}"
                )
        for frame, partial in fresh:
            slots.setdefault(frame, [None] * self._num_sites)[site] = partial
        return len(partials) - len(fresh)

    def get(self, frame: int, site: int) -> Optional[int]:
        """``IBuf[frame](SET[site])`` or None if absent/pruned."""
        slot = self._slots.get(frame)
        return slot[site] if slot is not None else None

    def has(self, frame: int, site: int) -> bool:
        return self.get(frame, site) is not None

    def complete(self, frame: int, sites: Iterable[int]) -> bool:
        """True when every site in ``sites`` has an input for ``frame``.

        Frames below the prune floor count as complete: pruning only happens
        after delivery, so such frames were complete when it mattered.
        """
        if frame < self._floor:
            return True
        slot = self._slots.get(frame)
        if slot is None:
            return not list(sites)
        return all(slot[s] is not None for s in sites)

    def merged(self, frame: int, assignment) -> int:
        """Merge all present partial inputs of ``frame`` via an
        :class:`~repro.core.inputs.InputAssignment`."""
        slot = self._slots.get(frame)
        if slot is None:
            return 0
        partials = {s: v for s, v in enumerate(slot) if v is not None}
        return assignment.merge(partials)

    def range_for(self, site: int, first: int, last: int) -> List[int]:
        """Partial inputs of ``site`` for frames ``first..last`` inclusive.

        Raises if any requested frame is missing — callers (the message
        builder) must only request frames they know are buffered.
        """
        values: List[int] = []
        for frame in range(first, last + 1):
            value = self.get(frame, site)
            if value is None:
                raise KeyError(f"no input for frame {frame} site {site}")
            values.append(value)
        return values

    # ------------------------------------------------------------------
    def prune_below(self, frame: int) -> int:
        """Drop all frames strictly below ``frame``; returns count dropped."""
        if frame <= self._floor:
            return 0
        stale = [f for f in self._slots if f < frame]
        for f in stale:
            del self._slots[f]
        self._floor = frame
        return len(stale)
