"""Unit tests for the RC-16 console and video."""

import pytest

from repro.emulator.assembler import assemble
from repro.emulator.console import (
    Console,
    FRAME_COUNTER_ADDRESS,
    INPUT_ADDRESS,
)
from repro.emulator.machine import MachineError
from repro.emulator.video import FRAMEBUFFER_BASE, HEIGHT, WIDTH

#: Copies the input word into 0x2000 and paints pixel (0,0) each frame.
ECHO_ROM = """
.equ INPUT, 0xFF00
.equ FB,    0xE000
.org 0x0100
frame:
    LDI r0, 0
    LD  r1, [r0+INPUT]
    ST  [r0+0x2000], r1
    LDI r2, 7
    STB [r2+FB], r2
    YIELD
    JMP frame
"""


def make_console() -> Console:
    return Console(assemble(ECHO_ROM), name="echo")


class TestStep:
    def test_input_latched(self):
        console = make_console()
        console.step(0x1234)
        assert console.memory.read_word(0x2000) == 0x1234
        assert console.memory.read_word(INPUT_ADDRESS) == 0x1234

    def test_frame_counter_latched(self):
        console = make_console()
        for __ in range(3):
            console.step(0)
        assert console.memory.read_word(FRAME_COUNTER_ADDRESS) == 2
        assert console.frame == 3

    def test_negative_input_rejected(self):
        with pytest.raises(MachineError):
            make_console().step(-1)

    def test_program_draws(self):
        console = make_console()
        console.step(0)
        assert console.video.pixel(7, 0) == 7


class TestInterpreters:
    @pytest.mark.parametrize("interpreter", ["block", "reference"])
    def test_accepted(self, interpreter):
        console = Console(assemble(ECHO_ROM), interpreter=interpreter)
        console.step(0x0042)
        assert console.memory.read_word(0x2000) == 0x0042

    @pytest.mark.parametrize("interpreter", ["fast", "table"])
    def test_others_rejected(self, interpreter):
        with pytest.raises(ValueError):
            Console(assemble(ECHO_ROM), interpreter=interpreter)


class TestDeterminism:
    def test_same_inputs_same_checksums(self):
        a, b = make_console(), make_console()
        for frame in range(50):
            word = (frame * 2654435761) & 0xFFFF
            a.step(word)
            b.step(word)
            assert a.checksum() == b.checksum()

    def test_different_inputs_diverge(self):
        a, b = make_console(), make_console()
        a.step(1)
        b.step(2)
        assert a.checksum() != b.checksum()

    def test_reset_restores_cold_boot(self):
        console = make_console()
        boot = console.checksum()
        console.step(0xFFFF)
        console.reset()
        assert console.checksum() == boot
        assert console.frame == 0


class TestSaveState:
    def test_roundtrip_resumes_identically(self):
        a = make_console()
        for frame in range(10):
            a.step(frame)
        blob = a.save_state()
        b = make_console()
        b.load_state(blob)
        assert b.frame == a.frame
        assert b.checksum() == a.checksum()
        a.step(0x42)
        b.step(0x42)
        assert a.checksum() == b.checksum()

    def test_bad_magic_rejected(self):
        console = make_console()
        blob = bytearray(console.save_state())
        blob[0] = ord("X")
        with pytest.raises(MachineError):
            console.load_state(bytes(blob))

    def test_wrong_size_rejected(self):
        with pytest.raises(MachineError):
            make_console().load_state(b"junk")


class TestVideo:
    def test_pixel_bounds(self):
        console = make_console()
        with pytest.raises(ValueError):
            console.video.pixel(WIDTH, 0)
        with pytest.raises(ValueError):
            console.video.pixel(0, HEIGHT)

    def test_frame_bytes_size(self):
        assert len(make_console().video.frame_bytes()) == WIDTH * HEIGHT

    def test_render_text_shape(self):
        text = make_console().video.render_text()
        lines = text.splitlines()
        assert len(lines) == HEIGHT
        assert all(len(line) == WIDTH for line in lines)

    def test_checksum_tracks_framebuffer(self):
        console = make_console()
        before = console.video.checksum()
        console.memory.write_byte(FRAMEBUFFER_BASE, 5)
        assert console.video.checksum() != before
