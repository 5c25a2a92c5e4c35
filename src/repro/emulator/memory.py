"""The RC-16 memory bus: 64 KiB with memory-mapped I/O hooks.

Memory map (see :mod:`repro.emulator.console` for the full wiring)::

    0x0000 .. 0xDFFF   general RAM (code is loaded at 0x0100)
    0xE000 .. 0xEBFF   framebuffer (64 × 48, one byte per pixel)
    0xFF00 .. 0xFF01   input word (little-endian, read-only to the program)
    0xFF02 .. 0xFF03   frame counter (read-only to the program)

MMIO is implemented with read/write hooks on address ranges so devices stay
decoupled from the bus.

Performance model (see docs/performance.md): the 64 KiB space is divided
into 256 pages of 256 bytes.  A page with no hooks is *plain* and its
reads/writes hit the backing ``bytearray`` directly — the common case for
every fetch, stack op and framebuffer write.  Hook lookup only happens on
the handful of MMIO pages, and even there scans just that page's hooks.

The bus also tracks *dirty pages*: every mutation stamps the written page
with a monotonically increasing generation, which powers

* :meth:`page_digest` — a chunked CRC cache so checksumming after a frame
  only re-hashes the chunks that frame touched (and a cold checksum is a
  handful of ``zlib.crc32`` calls over preallocated ``memoryview`` slices),
* :meth:`mark` / :meth:`dirty_pages_since` — the delta-snapshot protocol
  used by :meth:`repro.emulator.console.Console.save_delta`, and
* the block-translation cache in :mod:`repro.emulator.cpu`, which stamps
  each compiled block with the generations of the pages it spans and
  invalidates on mismatch — no extra write-barrier cost.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, List, Optional, Tuple

MEMORY_SIZE = 0x10000

#: Pages are the granularity of MMIO routing and dirty tracking.
PAGE_SHIFT = 8
PAGE_SIZE = 1 << PAGE_SHIFT
NUM_PAGES = MEMORY_SIZE >> PAGE_SHIFT

#: Digest chunks are coarser than pages: hashing 64 × 1 KiB slices costs a
#: fraction of 256 × 256 B calls (fewer zlib round-trips), while a typical
#: frame's working set still maps to only a few chunks.
CHUNK_SHIFT = 10
CHUNK_SIZE = 1 << CHUNK_SHIFT
NUM_CHUNKS = MEMORY_SIZE >> CHUNK_SHIFT
PAGES_PER_CHUNK = CHUNK_SIZE >> PAGE_SHIFT

_DIGEST_PACK = struct.Struct(f">{NUM_CHUNKS}I")

_Hook = Tuple[int, int, Optional[Callable[[int], int]], Optional[Callable[[int, int], None]]]


class Memory:
    """A 64 KiB byte-addressable bus with optional MMIO hooks."""

    def __init__(self) -> None:
        self._data = bytearray(MEMORY_SIZE)
        # (start, end_exclusive, read_hook, write_hook), insertion order.
        self._hooks: List[_Hook] = []
        # Page routing: _plain[p] is 1 iff page p has no hooks (pure RAM).
        # The extra sentinel entry at index NUM_PAGES is always 0 so the
        # word fast paths fall back to the wrapping byte path at 0xFFFF
        # without a separate bounds check.
        self._plain = bytearray(b"\x01" * NUM_PAGES + b"\x00")
        # Word-granular fast-path map: _plain_word[a] is 1 iff a 16-bit
        # access at ``a`` stays on plain pages *and* does not wrap past
        # 0xFFFF — one index op decides the whole word fast path.
        self._plain_word = bytearray(b"\x01" * (MEMORY_SIZE - 1) + b"\x00")
        # Hooks overlapping each page, insertion order (None for plain pages).
        self._page_hooks: List[Optional[List[_Hook]]] = [None] * NUM_PAGES
        # Dirty tracking: _page_gen[p] is the generation of the last write
        # to page p; mark()/page_digest() advance _gen so consumers can ask
        # "what changed since my last look?" independently of each other.
        self._gen = 1
        self._page_gen = [0] * NUM_PAGES
        # Layout epoch: bumped whenever a hook changes which pages are
        # plain.  The CPU's block-translation cache polls it each frame and
        # flushes compiled blocks when the MMIO layout shifts underneath it.
        self._hooks_epoch = 0
        # Chunked digest cache (see page_digest).  The memoryview slices are
        # created once; they alias the live bytearray, so recomputing a
        # chunk's CRC is a single zlib call with no per-call slicing.
        self._chunk_crcs = [0] * NUM_CHUNKS
        data_view = memoryview(self._data)
        self._chunk_views = [
            data_view[chunk << CHUNK_SHIFT : (chunk + 1) << CHUNK_SHIFT]
            for chunk in range(NUM_CHUNKS)
        ]
        self._all_dirty = True  # cold start: first digest maps every chunk
        self._digest_stamp = 0  # generation at which _chunk_crcs was valid

    # ------------------------------------------------------------------
    def add_hook(
        self,
        start: int,
        end: int,
        read: Optional[Callable[[int], int]] = None,
        write: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        """Install read/write interceptors for addresses ``start..end-1``."""
        if not 0 <= start < end <= MEMORY_SIZE:
            raise ValueError(f"bad hook range {start:#x}..{end:#x}")
        hook = (start, end, read, write)
        self._hooks.append(hook)
        self._hooks_epoch += 1
        for page in range(start >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1):
            self._plain[page] = 0
            if self._page_hooks[page] is None:
                self._page_hooks[page] = []
            self._page_hooks[page].append(hook)
            # A word access at the page's addresses — or at the byte just
            # before the page, whose high byte lands inside it — must take
            # the hook-aware slow path.
            first = max(0, (page << PAGE_SHIFT) - 1)
            last = min(MEMORY_SIZE, (page + 1) << PAGE_SHIFT)
            self._plain_word[first:last] = bytes(last - first)

    def _find_hook(self, address: int) -> Optional[_Hook]:
        hooks = self._page_hooks[address >> PAGE_SHIFT]
        if hooks:
            for hook in hooks:
                if hook[0] <= address < hook[1]:
                    return hook
        return None

    # ------------------------------------------------------------------
    def read_byte(self, address: int) -> int:
        address &= 0xFFFF
        if self._plain[address >> PAGE_SHIFT]:
            return self._data[address]
        hook = self._find_hook(address)
        if hook is not None and hook[2] is not None:
            return hook[2](address) & 0xFF
        return self._data[address]

    def write_byte(self, address: int, value: int) -> None:
        address &= 0xFFFF
        page = address >> PAGE_SHIFT
        if self._plain[page]:
            self._data[address] = value & 0xFF
            self._page_gen[page] = self._gen
            return
        hook = self._find_hook(address)
        if hook is not None:
            if hook[3] is not None:
                hook[3](address, value & 0xFF)
                return
            if hook[2] is not None:
                return  # read-only region: writes are ignored, like real MMIO
        self._data[address] = value & 0xFF
        self._page_gen[page] = self._gen

    def read_word(self, address: int) -> int:
        """Little-endian 16-bit read (fast path for plain-RAM pages)."""
        address &= 0xFFFF
        if self._plain_word[address]:
            data = self._data
            return data[address] | (data[address + 1] << 8)
        return self.read_byte(address) | (self.read_byte(address + 1) << 8)

    def write_word(self, address: int, value: int) -> None:
        address &= 0xFFFF
        if self._plain_word[address]:
            data = self._data
            data[address] = value & 0xFF
            data[address + 1] = (value >> 8) & 0xFF
            gen = self._gen
            page_gen = self._page_gen
            page_gen[address >> PAGE_SHIFT] = gen
            page_gen[(address + 1) >> PAGE_SHIFT] = gen
            return
        self.write_byte(address, value & 0xFF)
        self.write_byte(address + 1, (value >> 8) & 0xFF)

    # ------------------------------------------------------------------
    # Bulk access (loader, savestates, checksums) — bypasses hooks.
    # ------------------------------------------------------------------
    def load(self, address: int, blob: bytes) -> None:
        if address + len(blob) > MEMORY_SIZE:
            raise ValueError(
                f"load of {len(blob)} bytes at {address:#x} overflows memory"
            )
        if not blob:
            return
        self._data[address : address + len(blob)] = blob
        gen = self._gen
        first = address >> PAGE_SHIFT
        last = (address + len(blob) - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self._page_gen[page] = gen

    def dump(self, address: int = 0, length: int = MEMORY_SIZE) -> bytes:
        """A mutation-safe copy; use :meth:`view` for read-only scans."""
        return bytes(self._data[address : address + length])

    def view(self, address: int = 0, length: int = MEMORY_SIZE) -> memoryview:
        """Zero-copy read-only view of the backing store.

        The view aliases live memory: it is only valid until the next
        mutation, so consume it immediately (CRCs, comparisons, slicing).
        """
        return memoryview(self._data).toreadonly()[address : address + length]

    def restore(self, blob: bytes) -> None:
        if len(blob) != MEMORY_SIZE:
            raise ValueError(f"snapshot must be {MEMORY_SIZE} bytes, got {len(blob)}")
        self._data[:] = blob
        self._mark_all_dirty()

    def clear(self) -> None:
        self._data[:] = bytes(MEMORY_SIZE)
        self._mark_all_dirty()

    def _mark_all_dirty(self) -> None:
        # In-place: compiled blocks capture this list (see cpu.py), so the
        # object identity must survive restore()/clear().
        self._page_gen[:] = [self._gen] * NUM_PAGES
        self._all_dirty = True

    # ------------------------------------------------------------------
    # Dirty-page tracking (delta snapshots, incremental checksums).
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Start a new dirty-tracking epoch; returns its generation.

        Pages written at or after the returned generation show up in
        :meth:`dirty_pages_since`.  Marks are independent: any number of
        consumers can hold their own.
        """
        self._gen += 1
        return self._gen

    def dirty_pages_since(self, mark: int) -> List[int]:
        """Pages written since :meth:`mark` returned ``mark`` (sorted)."""
        page_gen = self._page_gen
        return [page for page in range(NUM_PAGES) if page_gen[page] >= mark]

    def page_digest(self) -> bytes:
        """Per-chunk digest table (64 × 1 KiB chunks × 4 bytes, big-endian).

        A deterministic digest of the full 64 KiB that only re-hashes
        chunks written since the previous call — the cost of a steady-state
        checksum is proportional to the frame's working set, not to the
        address space.  A cold call (after ``restore``/``load_state``) takes
        the ``_all_dirty`` path: one ``map(crc32, views)`` over the 64
        preallocated slices, an order of magnitude cheaper than the old
        per-page loop.

        The digest bytes are an internal contract: they are compared live
        between interpreters (never persisted), so the chunk size is a
        free parameter as long as every site in a session agrees.
        """
        crcs = self._chunk_crcs
        page_gen = self._page_gen
        crc32 = zlib.crc32
        views = self._chunk_views
        if self._all_dirty:
            self._all_dirty = False
            crcs[:] = map(crc32, views)
        else:
            stamp = self._digest_stamp
            for chunk in range(NUM_CHUNKS):
                base = chunk * PAGES_PER_CHUNK
                if (
                    page_gen[base] >= stamp
                    or page_gen[base + 1] >= stamp
                    or page_gen[base + 2] >= stamp
                    or page_gen[base + 3] >= stamp
                ):
                    crcs[chunk] = crc32(views[chunk])
        self._gen += 1
        self._digest_stamp = self._gen
        return _DIGEST_PACK.pack(*crcs)
