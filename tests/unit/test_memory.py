"""Unit tests for repro.emulator.memory."""

import pytest

from repro.emulator.memory import MEMORY_SIZE, Memory


class TestByteAccess:
    def test_read_write_byte(self):
        memory = Memory()
        memory.write_byte(0x1234, 0xAB)
        assert memory.read_byte(0x1234) == 0xAB

    def test_byte_masked_to_8_bits(self):
        memory = Memory()
        memory.write_byte(0, 0x1FF)
        assert memory.read_byte(0) == 0xFF

    def test_address_wraps_16_bits(self):
        memory = Memory()
        memory.write_byte(0x10000, 0x42)  # wraps to 0
        assert memory.read_byte(0) == 0x42

    def test_initial_memory_zero(self):
        memory = Memory()
        assert all(memory.read_byte(a) == 0 for a in range(0, 0x1000, 97))


class TestWordAccess:
    def test_little_endian(self):
        memory = Memory()
        memory.write_word(0x100, 0xBEEF)
        assert memory.read_byte(0x100) == 0xEF
        assert memory.read_byte(0x101) == 0xBE
        assert memory.read_word(0x100) == 0xBEEF

    def test_word_masked(self):
        memory = Memory()
        memory.write_word(0, 0x12345)
        assert memory.read_word(0) == 0x2345


class TestBulk:
    def test_load_and_dump(self):
        memory = Memory()
        memory.load(0x200, b"\x01\x02\x03")
        assert memory.dump(0x200, 3) == b"\x01\x02\x03"

    def test_load_overflow_rejected(self):
        memory = Memory()
        with pytest.raises(ValueError):
            memory.load(MEMORY_SIZE - 1, b"\x01\x02")

    def test_restore_roundtrip(self):
        memory = Memory()
        memory.write_byte(5, 99)
        snapshot = memory.dump()
        other = Memory()
        other.restore(snapshot)
        assert other.read_byte(5) == 99

    def test_restore_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            Memory().restore(b"tiny")

    def test_clear(self):
        memory = Memory()
        memory.write_byte(5, 99)
        memory.clear()
        assert memory.read_byte(5) == 0


class TestHooks:
    def test_read_hook_intercepts(self):
        memory = Memory()
        memory.add_hook(0x8000, 0x8010, read=lambda addr: addr & 0xFF)
        assert memory.read_byte(0x8005) == 0x05

    def test_write_hook_intercepts(self):
        memory = Memory()
        written = {}
        memory.add_hook(0x8000, 0x8010, write=lambda a, v: written.update({a: v}))
        memory.write_byte(0x8003, 7)
        assert written == {0x8003: 7}
        # Backing store untouched.
        assert memory.dump(0x8003, 1) == b"\x00"

    def test_read_only_region_ignores_writes(self):
        memory = Memory()
        memory.add_hook(0x8000, 0x8010, read=lambda addr: 0x42)
        memory.write_byte(0x8000, 0x99)
        assert memory.read_byte(0x8000) == 0x42

    def test_outside_hook_unaffected(self):
        memory = Memory()
        memory.add_hook(0x8000, 0x8010, read=lambda addr: 0x42)
        memory.write_byte(0x7FFF, 1)
        assert memory.read_byte(0x7FFF) == 1

    def test_bad_hook_range(self):
        with pytest.raises(ValueError):
            Memory().add_hook(10, 5)


class TestWordFastPath:
    """The per-address word routing table (docs/performance.md)."""

    def test_word_wraps_at_top_of_memory(self):
        memory = Memory()
        memory.write_byte(0xFFFF, 0x34)
        memory.write_byte(0x0000, 0x12)
        assert memory.read_word(0xFFFF) == 0x1234
        memory.write_word(0xFFFF, 0xBEEF)
        assert memory.read_byte(0xFFFF) == 0xEF
        assert memory.read_byte(0x0000) == 0xBE

    def test_word_spanning_into_hooked_page_uses_hooks(self):
        memory = Memory()
        memory.add_hook(0x0200, 0x0300, read=lambda a: 0x77)
        # Low byte on the plain page, high byte inside the hooked page.
        memory.write_byte(0x01FF, 0x11)
        assert memory.read_word(0x01FF) == (0x77 << 8) | 0x11

    def test_hook_added_after_writes_still_intercepts(self):
        memory = Memory()
        memory.write_word(0x3000, 0xAAAA)  # page is plain at write time
        memory.add_hook(0x3000, 0x3002, read=lambda a: 0x55)
        assert memory.read_word(0x3000) == 0x5555

    def test_hook_spanning_pages_covers_both(self):
        seen = []
        memory = Memory()
        memory.add_hook(0x04F0, 0x0510, write=lambda a, v: seen.append((a, v)))
        memory.write_byte(0x04F8, 1)  # first page
        memory.write_byte(0x0503, 2)  # second page
        assert seen == [(0x04F8, 1), (0x0503, 2)]


class TestDirtyTracking:
    def test_dirty_pages_since_mark(self):
        memory = Memory()
        mark = memory.mark()
        memory.write_byte(0x0105, 1)
        memory.write_word(0x30FF, 0xBEEF)  # straddles pages 0x30 and 0x31
        assert memory.dirty_pages_since(mark) == [0x01, 0x30, 0x31]

    def test_marks_are_independent(self):
        memory = Memory()
        first = memory.mark()
        memory.write_byte(0x0100, 1)
        second = memory.mark()
        memory.write_byte(0x0200, 1)
        assert memory.dirty_pages_since(first) == [0x01, 0x02]
        assert memory.dirty_pages_since(second) == [0x02]

    def test_bulk_mutations_mark_dirty(self):
        memory = Memory()
        mark = memory.mark()
        memory.load(0x01FE, b"abcd")
        assert memory.dirty_pages_since(mark) == [0x01, 0x02]
        mark = memory.mark()
        memory.clear()
        assert len(memory.dirty_pages_since(mark)) == 256
        mark = memory.mark()
        memory.restore(bytes(MEMORY_SIZE))
        assert len(memory.dirty_pages_since(mark)) == 256

    def test_page_digest_stable_then_sensitive(self):
        memory = Memory()
        first = memory.page_digest()
        assert memory.page_digest() == first  # no writes: identical
        memory.write_byte(0x1234, 9)
        second = memory.page_digest()
        assert second != first
        # Only the written 1 KiB chunk's 4-byte CRC slot changed.
        chunk = 0x1234 >> 10
        for c in range(64):
            slot = slice(c * 4, c * 4 + 4)
            if c == chunk:
                assert second[slot] != first[slot]
            else:
                assert second[slot] == first[slot]

    def test_warm_digest_matches_cold(self):
        memory = Memory()
        memory.page_digest()  # the cold pass
        memory.write_word(0x3000, 0x1234)
        warm = memory.page_digest()  # re-hashes only the written chunk
        twin = Memory()
        twin.write_word(0x3000, 0x1234)
        twin._mark_all_dirty()
        assert twin.page_digest() == warm

    def test_view_is_zero_copy_and_readonly(self):
        memory = Memory()
        memory.write_byte(0x0100, 0xAB)
        view = memory.view(0x0100, 4)
        assert view[0] == 0xAB
        memory.write_byte(0x0100, 0xCD)
        assert view[0] == 0xCD  # aliases live memory
        with pytest.raises(TypeError):
            view[0] = 0
