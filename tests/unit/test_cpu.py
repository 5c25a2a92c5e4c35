"""Unit tests for the RC-16 CPU, via hand-assembled snippets."""

import pytest

from repro.emulator.assembler import assemble
from repro.emulator.cpu import Cpu, CpuFault, INITIAL_SP
from repro.emulator.memory import Memory


def boot(source: str) -> Cpu:
    """Assemble at 0x0100 into a fresh CPU, reset to the entry point."""
    program = assemble(".org 0x0100\n" + source)
    memory = Memory()
    memory.load(program.origin, program.code)
    cpu = Cpu(memory)
    cpu.reset(program.entry)
    return cpu


def observable(cpu: Cpu) -> tuple:
    return (cpu.regs, cpu.pc, cpu.z, cpu.n, cpu.halted, cpu._yielded, cpu.cycles)


def run(source: str, max_cycles: int = 10_000) -> Cpu:
    """Run one frame (until HALT/YIELD/budget) on the block tier and return
    the CPU, after checking the reference interpreter ends in the same
    registers, flags, halted/yielded state and cycle count."""
    cpu = boot(source)
    cpu.run_frame_blocks(max_cycles)
    reference = boot(source)
    reference.run_frame_reference(max_cycles)
    assert observable(cpu) == observable(reference)
    return cpu


class TestDataMovement:
    def test_ldi(self):
        cpu = run("LDI r0, 0x1234\nHALT")
        assert cpu.regs[0] == 0x1234

    def test_mov(self):
        cpu = run("LDI r1, 7\nMOV r2, r1\nHALT")
        assert cpu.regs[2] == 7

    def test_store_load_word(self):
        cpu = run("LDI r0, 0xBEEF\nLDI r1, 0x2000\nST [r1+0], r0\nLD r2, [r1+0]\nHALT")
        assert cpu.regs[2] == 0xBEEF
        assert cpu.memory.read_word(0x2000) == 0xBEEF

    def test_store_load_byte(self):
        cpu = run("LDI r0, 0x1FF\nLDI r1, 0x2000\nSTB [r1+0], r0\nLDB r2, [r1+0]\nHALT")
        assert cpu.regs[2] == 0xFF

    def test_indexed_addressing(self):
        cpu = run("LDI r0, 42\nLDI r1, 0x2000\nST [r1+6], r0\nLD r2, [r1+6]\nHALT")
        assert cpu.memory.read_word(0x2006) == 42
        assert cpu.regs[2] == 42

    def test_negative_offset(self):
        cpu = run("LDI r0, 9\nLDI r1, 0x2004\nST [r1-4], r0\nHALT")
        assert cpu.memory.read_word(0x2000) == 9


class TestArithmetic:
    def test_add(self):
        cpu = run("LDI r0, 5\nLDI r1, 3\nADD r0, r1\nHALT")
        assert cpu.regs[0] == 8

    def test_add_wraps(self):
        cpu = run("LDI r0, 0xFFFF\nLDI r1, 1\nADD r0, r1\nHALT")
        assert cpu.regs[0] == 0
        assert cpu.z

    def test_sub_sets_negative_flag(self):
        cpu = run("LDI r0, 3\nLDI r1, 5\nSUB r0, r1\nHALT")
        assert cpu.regs[0] == 0xFFFE
        assert cpu.n

    def test_mul(self):
        cpu = run("LDI r0, 7\nLDI r1, 6\nMUL r0, r1\nHALT")
        assert cpu.regs[0] == 42

    def test_logic_ops(self):
        cpu = run(
            "LDI r0, 0xF0\nLDI r1, 0x0F\nOR r0, r1\n"
            "LDI r2, 0xFF\nLDI r3, 0x0F\nAND r2, r3\n"
            "LDI r4, 0xFF\nLDI r5, 0x0F\nXOR r4, r5\nHALT"
        )
        assert cpu.regs[0] == 0xFF
        assert cpu.regs[2] == 0x0F
        assert cpu.regs[4] == 0xF0

    def test_shifts(self):
        cpu = run("LDI r0, 1\nLDI r1, 4\nSHL r0, r1\nLDI r2, 0x80\nLDI r3, 3\nSHR r2, r3\nHALT")
        assert cpu.regs[0] == 0x10
        assert cpu.regs[2] == 0x10

    def test_addi_negative(self):
        cpu = run("LDI r0, 5\nADDI r0, -2\nHALT")
        assert cpu.regs[0] == 3


class TestControlFlow:
    def test_jmp(self):
        cpu = run("JMP skip\nLDI r0, 1\nskip:\nLDI r1, 2\nHALT")
        assert cpu.regs[0] == 0
        assert cpu.regs[1] == 2

    def test_jz_taken(self):
        cpu = run("LDI r0, 0\nCMPI r0, 0\nJZ yes\nLDI r1, 1\nyes:\nHALT")
        assert cpu.regs[1] == 0

    def test_jnz_taken(self):
        cpu = run("LDI r0, 3\nCMPI r0, 0\nJNZ yes\nLDI r1, 1\nyes:\nHALT")
        assert cpu.regs[1] == 0

    def test_jlt_jge(self):
        cpu = run("LDI r0, 2\nCMPI r0, 5\nJLT less\nLDI r1, 1\nless:\nHALT")
        assert cpu.regs[1] == 0
        cpu = run("LDI r0, 7\nCMPI r0, 5\nJGE geq\nLDI r1, 1\ngeq:\nHALT")
        assert cpu.regs[1] == 0

    def test_jle_jgt(self):
        cpu = run("LDI r0, 5\nCMPI r0, 5\nJLE ok\nLDI r1, 1\nok:\nHALT")
        assert cpu.regs[1] == 0
        cpu = run("LDI r0, 6\nCMPI r0, 5\nJGT ok\nLDI r1, 1\nok:\nHALT")
        assert cpu.regs[1] == 0

    def test_loop_counts(self):
        cpu = run(
            "LDI r0, 0\nLDI r1, 10\n"
            "loop:\nADDI r0, 1\nCMP r0, r1\nJLT loop\nHALT"
        )
        assert cpu.regs[0] == 10

    def test_call_ret(self):
        cpu = run(
            "CALL sub\nLDI r1, 2\nHALT\n"
            "sub:\nLDI r0, 1\nRET"
        )
        assert cpu.regs[0] == 1
        assert cpu.regs[1] == 2

    def test_nested_calls(self):
        cpu = run(
            "CALL outer\nHALT\n"
            "outer:\nCALL inner\nADDI r0, 1\nRET\n"
            "inner:\nLDI r0, 10\nRET"
        )
        assert cpu.regs[0] == 11


class TestStack:
    def test_push_pop(self):
        cpu = run("LDI r0, 55\nPUSH r0\nLDI r0, 0\nPOP r1\nHALT")
        assert cpu.regs[1] == 55
        assert cpu.regs[15] == INITIAL_SP

    def test_stack_grows_down(self):
        cpu = run("LDI r0, 1\nPUSH r0\nHALT")
        assert cpu.regs[15] == INITIAL_SP - 2


class TestFrameSemantics:
    def test_yield_stops_frame(self):
        cpu = run("LDI r0, 1\nYIELD\nLDI r0, 2\nHALT")
        assert cpu.regs[0] == 1
        assert not cpu.halted

    def test_resume_after_yield(self):
        program = assemble(".org 0x0100\nLDI r0, 1\nYIELD\nLDI r0, 2\nHALT")
        memory = Memory()
        memory.load(program.origin, program.code)
        cpu = Cpu(memory)
        cpu.reset(program.entry)
        cpu.run_frame_blocks(1000)
        assert cpu.regs[0] == 1
        cpu.run_frame_blocks(1000)
        assert cpu.regs[0] == 2
        assert cpu.halted

    def test_cycle_budget_bounds_runaway(self):
        cpu = run("spin:\nJMP spin", max_cycles=500)
        assert cpu.cycles <= 500
        assert not cpu.halted

    def test_halted_cpu_stays_halted(self):
        cpu = run("HALT")
        used = cpu.run_frame_blocks(1000)
        assert used == 0

    def test_illegal_opcode_faults(self):
        memory = Memory()
        memory.write_word(0x0100, 0xEE00)  # bogus opcode
        cpu = Cpu(memory)
        cpu.reset(0x0100)
        with pytest.raises(CpuFault):
            cpu.run_frame_blocks(10)


class TestSaveState:
    def test_roundtrip(self):
        cpu = run("LDI r0, 1\nLDI r5, 99\nCMPI r5, 100\nYIELD\nHALT")
        blob = cpu.save_state()
        other = Cpu(Memory())
        other.load_state(blob)
        assert other.regs == cpu.regs
        assert other.pc == cpu.pc
        assert other.z == cpu.z
        assert other.n == cpu.n
        assert other.halted == cpu.halted

    def test_wrong_size_rejected(self):
        with pytest.raises(Exception):
            Cpu(Memory()).load_state(b"nope")


def run_reference(source: str, max_cycles: int = 10_000) -> Cpu:
    """Like :func:`run` but through the retained reference interpreter."""
    cpu = boot(source)
    cpu.run_frame_reference(max_cycles)
    return cpu


class TestFastPathParity:
    """The block tier (compiled regions plus the single steps it hands to
    the reference) against the reference interpreter run alone."""

    def test_illegal_opcode_fault_matches_reference(self):
        for runner in (Cpu.run_frame_blocks, Cpu.run_frame_reference):
            memory = Memory()
            memory.write_word(0x0100, 0xEE00)
            cpu = Cpu(memory)
            cpu.reset(0x0100)
            with pytest.raises(CpuFault) as excinfo:
                runner(cpu, 10)
            assert "illegal opcode 0xee at pc=0x0100" in str(excinfo.value)
            assert cpu.pc == 0x0102  # fault leaves pc past the bad word

    def test_self_modifying_code(self):
        """The decode cache must not serve stale entries: the program
        rewrites an upcoming LDI's immediate before executing it."""
        source = """
            LDI r1, 0x0063      ; will be patched to 0x0064
            LDI r2, patch + 2   ; address of the immediate word
            LD  r3, [r2]
            ADDI r3, 1
            ST  [r2], r3
        patch:
            LDI r0, 0x0063
            HALT
        """
        block = run(source)
        reference = run_reference(source)
        assert block.regs[0] == reference.regs[0] == 0x0064

    def test_self_modifying_opcode_respects_cache_key(self):
        """Patching the instruction *word* (not just its immediate) must be
        picked up even at the same pc — the cache keys on (pc, word)."""
        source = """
        loop:
            LDI r2, target
            LD  r3, [r2]
            CMPI r0, 1          ; second pass?
            JZ  done
            LDI r0, 1
            LDI r4, 0x1234      ; patch target's word: NOP -> LDI r5, ...
            ST  [r2], r4
            JMP loop
        done:
        target:
            NOP
            HALT
        """
        # Assembling the exact patch bytes by hand is brittle; instead just
        # assert block and reference agree on the full register file.
        block = run(source)
        reference = run_reference(source)
        assert block.regs == reference.regs
        assert block.pc == reference.pc

    def test_budget_and_yield_accounting_match(self):
        source = "LDI r0, 7\nYIELD\nLDI r0, 8\nHALT"
        for budget in (1, 2, 3, 1000):
            a = run(source, max_cycles=budget)
            b = run_reference(source, max_cycles=budget)
            assert (a.regs, a.pc, a.cycles, a.halted) == (
                b.regs, b.pc, b.cycles, b.halted
            )

    def test_fast_loop_budget_bounds_runaway(self):
        cpu = run("spin:\nJMP spin", max_cycles=500)
        reference = run_reference("spin:\nJMP spin", max_cycles=500)
        assert cpu.cycles == reference.cycles
        assert cpu.pc == reference.pc
