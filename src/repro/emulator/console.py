"""The RC-16 console: CPU + memory + video wired as a :class:`Machine`.

Per-frame behaviour (mirroring a vblank-driven arcade board):

1. the input word and frame counter are latched into their memory-mapped
   registers (``0xFF00`` and ``0xFF02``),
2. the CPU runs until it executes ``YIELD`` or exhausts the cycle budget,
3. whatever the program left in the framebuffer is the frame's video output.

Determinism: the CPU is deterministic, the cycle budget is fixed, and the
only inputs are the latched registers — so the console satisfies the
Machine contract by construction.

Hot-path notes (docs/performance.md):

* :meth:`checksum` digests the CPU state plus the memory bus's chunked
  CRC table, so a steady-state checksum re-hashes only the chunks the
  frame wrote instead of the full 64 KiB,
* :meth:`save_delta` / :meth:`apply_delta` move only dirty pages between
  replicas — the rollback shadow/speculative pair and any other
  same-lineage copies sync in O(working set) rather than O(address space),
* ``interpreter`` selects the block-translation loop (default) or the
  retained reference interpreter; the two are bit-identical by contract
  (the golden-trace tests enforce it).
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional
import zlib

from repro.emulator.assembler import Program
from repro.emulator.audio import Audio
from repro.emulator.cpu import Cpu
from repro.emulator.machine import Machine, MachineError
from repro.emulator.memory import MEMORY_SIZE, NUM_PAGES, PAGE_SHIFT, PAGE_SIZE, Memory
from repro.emulator.video import Video

INPUT_ADDRESS = 0xFF00
FRAME_COUNTER_ADDRESS = 0xFF02

#: Default per-frame cycle budget ("CPU speed").
DEFAULT_CYCLE_BUDGET = 20_000

_SAVE_HEADER = struct.Struct(">4sIQ")
_SAVE_MAGIC = b"RC16"

_DELTA_HEADER = struct.Struct(">4sIQH")  # magic, frame, cpu cycles, page count
_DELTA_MAGIC = b"RCD1"


class Console(Machine):
    """An RC-16 console with a loaded ROM."""

    def __init__(
        self,
        program: Program,
        name: str = "rc16",
        num_players: int = 2,
        cycle_budget: int = DEFAULT_CYCLE_BUDGET,
        interpreter: str = "block",
    ) -> None:
        super().__init__()
        if interpreter not in ("block", "reference"):
            raise ValueError(f"unknown interpreter {interpreter!r}")
        self.name = name
        self.num_players = num_players
        self.cycle_budget = cycle_budget
        self.interpreter = interpreter
        self.memory = Memory()
        self.cpu = Cpu(self.memory)
        self.video = Video(self.memory)
        self.audio = Audio(self.memory)
        self._program = program
        self.reset()

    def reset(self) -> None:
        """Cold boot: clear memory, reload the ROM, reset the CPU."""
        self.memory.clear()
        self.memory.load(self._program.origin, self._program.code)
        self.cpu.reset(self._program.entry)
        self._frame = 0

    # ------------------------------------------------------------------
    def _step(self, input_word: int) -> None:
        self.memory.write_word(INPUT_ADDRESS, input_word & 0xFFFF)
        self.memory.write_word(FRAME_COUNTER_ADDRESS, self._frame & 0xFFFF)
        self.audio.begin_frame()
        interpreter = self.interpreter
        if interpreter == "block":
            self.cpu.run_frame_blocks(self.cycle_budget)
        elif interpreter == "reference":
            self.cpu.run_frame_reference(self.cycle_budget)
        else:
            raise MachineError(f"unknown interpreter {interpreter!r}")

    def cpu_stats(self) -> dict:
        """Block-translation telemetry (monotonic counters plus the live
        cache size); mirrored into ``repro.obs`` snapshots and bench JSON."""
        cpu = self.cpu
        return {
            "blocks_compiled": cpu.blocks_compiled,
            "block_hits": cpu.block_hits,
            "block_invalidations": cpu.block_invalidations,
            "block_revalidations": cpu.block_revalidations,
            "fallback_steps": cpu.block_fallback_steps,
            "cached_blocks": len(cpu._blocks),
        }

    # ------------------------------------------------------------------
    def checksum(self) -> int:
        """Digest of CPU state + the per-page CRC table of all 64 KiB.

        Equivalent in coverage to hashing the full memory image (any byte
        change flips its page's CRC and therefore the digest), but the
        steady-state cost is proportional to the pages written since the
        previous checksum.
        """
        crc = zlib.crc32(self.cpu.save_state())
        return zlib.crc32(self.memory.page_digest(), crc)

    def save_state(self) -> bytes:
        header = _SAVE_HEADER.pack(_SAVE_MAGIC, self._frame, self.cpu.cycles)
        return header + self.cpu.save_state() + self.memory.dump()

    def load_state(self, blob: bytes) -> None:
        expected = _SAVE_HEADER.size + Cpu.STATE_SIZE + MEMORY_SIZE
        if len(blob) != expected:
            raise MachineError(
                f"console savestate must be {expected} bytes, got {len(blob)}"
            )
        magic, frame, cycles = _SAVE_HEADER.unpack_from(blob, 0)
        if magic != _SAVE_MAGIC:
            raise MachineError(f"bad savestate magic {magic!r}")
        offset = _SAVE_HEADER.size
        self.cpu.load_state(blob[offset : offset + Cpu.STATE_SIZE])
        self.cpu.cycles = cycles
        self.memory.restore(blob[offset + Cpu.STATE_SIZE :])
        self._frame = frame

    # ------------------------------------------------------------------
    # Delta snapshots.
    # ------------------------------------------------------------------
    def state_mark(self) -> int:
        return self.memory.mark()

    def dirty_pages_since(self, mark: int) -> Optional[List[int]]:
        return self.memory.dirty_pages_since(mark)

    def _delta_payload(self, pages: Optional[Iterable[int]] = None) -> bytes:
        """CPU state + frame counter + the named memory pages.

        Applying the result to a replica of the same lineage whose
        divergence from us is confined to ``pages`` makes it bit-identical
        to us.  ``None`` serializes every page (a full snapshot in delta
        framing).  The base class CRC-frames this payload end-to-end.
        """
        page_list = sorted(pages) if pages is not None else list(range(NUM_PAGES))
        if page_list and not (0 <= page_list[0] and page_list[-1] < NUM_PAGES):
            raise MachineError(f"delta pages out of range: {page_list}")
        parts = [
            _DELTA_HEADER.pack(
                _DELTA_MAGIC, self._frame, self.cpu.cycles, len(page_list)
            ),
            self.cpu.save_state(),
            bytes(page_list),
        ]
        view = self.memory.view()
        for page in page_list:
            start = page << PAGE_SHIFT
            parts.append(bytes(view[start : start + PAGE_SIZE]))
        return b"".join(parts)

    def _apply_delta_payload(self, blob: bytes) -> None:
        if bytes(blob[:4]) == Machine._DELTA_FULL_TAG:
            self.load_state(blob[4:])
            return
        if len(blob) < _DELTA_HEADER.size:
            raise MachineError(f"console delta too short: {len(blob)} bytes")
        magic, frame, cycles, count = _DELTA_HEADER.unpack_from(blob, 0)
        if magic != _DELTA_MAGIC:
            raise MachineError(f"bad delta magic {magic!r}")
        offset = _DELTA_HEADER.size
        expected = offset + Cpu.STATE_SIZE + count + count * PAGE_SIZE
        if len(blob) != expected:
            raise MachineError(
                f"console delta must be {expected} bytes for {count} pages, "
                f"got {len(blob)}"
            )
        self.cpu.load_state(blob[offset : offset + Cpu.STATE_SIZE])
        self.cpu.cycles = cycles
        offset += Cpu.STATE_SIZE
        page_list = blob[offset : offset + count]
        offset += count
        memory = self.memory
        for page in page_list:
            start = page << PAGE_SHIFT
            memory.load(start, blob[offset : offset + PAGE_SIZE])
            offset += PAGE_SIZE
        self._frame = frame

    def render_text(self) -> str:
        return self.video.render_text(downsample=2)
