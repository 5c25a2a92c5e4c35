"""The block-translation layer: parity, guards, and cache management.

The golden-trace integration tests already prove whole-game parity; these
tests pin down the cache *mechanics* — invalidation on real byte changes,
cheap revalidation on false-positive guard misses, the pathological-SMC
blacklist, and the MMIO hooks-epoch flush — plus the fault/budget edge
cases that ``test_cpu.py`` pins against the reference interpreter, and, since
the unit of translation is a region of blocks, every way out of one
(``TestRegions`` and the generated-program property below it).
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.emulator.assembler import assemble
from repro.emulator.cpu import Cpu, CpuFault
from repro.emulator.machine import create_game
from repro.emulator.memory import Memory


def boot(source: str) -> Cpu:
    program = assemble(".org 0x0100\n" + source)
    memory = Memory()
    memory.load(program.origin, program.code)
    cpu = Cpu(memory)
    cpu.reset(program.entry)
    return cpu


def run_blocks(source: str, max_cycles: int = 10_000) -> Cpu:
    cpu = boot(source)
    cpu.run_frame_blocks(max_cycles)
    return cpu


def run_reference(source: str, max_cycles: int = 10_000) -> Cpu:
    cpu = boot(source)
    cpu.run_frame_reference(max_cycles)
    return cpu


class TestBlockParity:
    """Edge cases the whole-game traces may not hit every run."""

    def test_illegal_opcode_fault_matches_reference(self):
        memory = Memory()
        memory.write_word(0x0100, 0xEE00)
        cpu = Cpu(memory)
        cpu.reset(0x0100)
        with pytest.raises(CpuFault) as excinfo:
            cpu.run_frame_blocks(10)
        assert "illegal opcode 0xee at pc=0x0100" in str(excinfo.value)
        assert cpu.pc == 0x0102  # fault leaves pc past the bad word

    def test_forward_jump_onto_illegal_opcode(self):
        """The jump is traced through to a target nothing decodes at: the
        region must still take it, and the fault names the target."""
        source = """
            LDI r1, 1
            JMP bad
            LDI r2, 9           ; skipped
        bad:
            .word 0xEE00
        """
        cpus = boot_pair(source)
        messages = []
        for cpu, run in zip(cpus, (Cpu.run_frame_blocks, Cpu.run_frame_reference)):
            with pytest.raises(CpuFault) as excinfo:
                run(cpu, 100)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert (cpus[0].regs, cpus[0].pc) == (cpus[1].regs, cpus[1].pc)
        assert cpus[0].regs[2] == 0

    def test_budget_and_yield_accounting_match(self):
        source = "LDI r0, 7\nYIELD\nLDI r0, 8\nHALT"
        for budget in (1, 2, 3, 1000):
            a = run_blocks(source, max_cycles=budget)
            b = run_reference(source, max_cycles=budget)
            assert (a.regs, a.pc, a.cycles, a.halted) == (
                b.regs, b.pc, b.cycles, b.halted
            )

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 499, 500])
    def test_superloop_budget_bounds_runaway(self, budget):
        """A self-jump compiles to an internal loop; its budget accounting
        must still match the reference to the cycle."""
        a = run_blocks("spin:\nJMP spin", max_cycles=budget)
        b = run_reference("spin:\nJMP spin", max_cycles=budget)
        assert (a.cycles, a.pc) == (b.cycles, b.pc)

    @pytest.mark.parametrize("budget", [3, 4, 5, 6, 7, 1000])
    def test_block_budget_tail_single_steps(self, budget):
        """When the remaining budget cannot cover a whole block, the tail
        must be single-stepped exactly as the reference would."""
        source = """
            LDI r1, 1
            LDI r2, 2
            LDI r3, 3
            LDI r4, 4
            HALT
        """
        a = run_blocks(source, max_cycles=budget)
        b = run_reference(source, max_cycles=budget)
        assert (a.regs, a.pc, a.cycles, a.halted) == (
            b.regs, b.pc, b.cycles, b.halted
        )

    def test_mid_block_store_into_own_range(self):
        """A store into the currently-executing block exits early and the
        freshly written instruction runs, same as the interpreters."""
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
        block = run_blocks(source)
        reference = run_reference(source)
        assert block.regs[0] == reference.regs[0] == 0x0064

    def test_patched_opcode_word_is_picked_up(self):
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
        block = run_blocks(source)
        reference = run_reference(source)
        assert block.regs == reference.regs
        assert block.pc == reference.pc


class TestCacheManagement:
    def test_unrelated_write_on_code_page_revalidates(self):
        """A write that dirties the code page but not the block's bytes is
        a guard false-positive: the cache must revalidate, not recompile."""
        source = """
        loop:
            LD   r1, [r0+0x01F0]   ; data word on the code page
            ADDI r1, 1
            ST   [r0+0x01F0], r1   ; dirties page 0x01 every frame
            YIELD
            JMP  loop
        """
        cpu = boot(source)
        for _ in range(10):
            cpu.run_frame_blocks(1000)
        assert cpu.block_revalidations > 0
        assert cpu.block_invalidations == 0
        assert cpu.memory.read_word(0x01F0) == 10

    def test_smc_rom_invalidates_and_matches_reference(self):
        """The smc ROM patches an executed instruction every frame: stale
        closures must be discarded (true invalidations, then the blacklist
        falls back to table stepping) while state stays bit-identical."""
        golden = create_game("smc")
        golden.interpreter = "reference"
        block = create_game("smc")
        assert block.interpreter == "block"
        for frame in range(200):
            word = (frame * 0x9E37) & 0xFFFF
            golden.step(word)
            block.step(word)
        assert golden.save_state() == block.save_state()
        assert golden.checksum() == block.checksum()
        stats = block.cpu_stats()
        assert stats["block_invalidations"] > 0
        assert stats["block_revalidations"] > 0
        # The patch site trips the per-address invalidation limit, so the
        # pathological block ends up table-stepped rather than recompiled
        # forever, and the cache stays bounded.
        assert stats["fallback_steps"] > 0
        assert stats["blocks_compiled"] < 1000
        assert stats["cached_blocks"] <= stats["blocks_compiled"]

    def test_cpu_stats_count_compiles_and_entries(self):
        """A fresh pong compiles its blocks on first entry and then runs
        inside them: both counters move, so the closure-entries gate reads
        a real count."""
        console = create_game("pong")
        for frame in range(30):
            console.step((frame * 2654435761) & 0xFFFF)
        stats = console.cpu_stats()
        assert stats["blocks_compiled"] > 0
        assert stats["block_hits"] > 0

    def test_add_hook_flushes_cache(self):
        """Registering an MMIO hook changes bus semantics: every compiled
        closure is stale by definition and the cache must flush."""
        source = """
        loop:
            ADDI r1, 1
            YIELD
            JMP  loop
        """
        cpu = boot(source)
        for _ in range(3):
            cpu.run_frame_blocks(1000)
        compiled_before = cpu.blocks_compiled
        assert compiled_before > 0
        cpu.run_frame_blocks(1000)
        assert cpu.blocks_compiled == compiled_before  # steady state

        cpu.memory.add_hook(0xFE00, 0xFE10, read=lambda addr: 0)
        cpu.run_frame_blocks(1000)
        assert cpu.blocks_compiled > compiled_before  # recompiled fresh
        assert cpu.regs[1] == 5  # one increment per frame, none lost


def machine_state(console):
    """Everything the determinism contract covers, comparable by ``==``."""
    cpu = console.cpu
    return (
        cpu.pc, cpu.cycles, list(cpu.regs), cpu.z, cpu.n, cpu.halted,
        bytes(console.memory.page_digest()),
    )


def boot_pair(source: str):
    """The same program on a block-mode and a reference-mode core."""
    return boot(source), boot(source)


def cpu_state(cpu: Cpu):
    return (
        cpu.pc, cpu.cycles, list(cpu.regs), cpu.z, cpu.n, cpu.halted,
        cpu.memory.dump(),
    )


def run_frames_in_step(block: Cpu, reference: Cpu, frames: int, budget: int = 1000):
    for frame in range(frames):
        block.run_frame_blocks(budget)
        reference.run_frame_reference(budget)
        assert cpu_state(block) == cpu_state(reference), f"frame {frame}"


class TestRegions:
    """A region keeps a loop with a branch in it inside one closure; every
    way out of it — budget, own-bytes store, stale guard, hooks — must
    leave exactly the reference interpreter's state."""

    def test_budget_sweep_over_pong_frames(self):
        """Every budget from 1 cycle to a whole frame, on each of pong's
        first three frames: the budget runs out at every member boundary
        and in the middle of every member.

        ``run_frame_reference(b)`` steps whole instructions while fewer
        than ``b`` cycles are used, so its result for every ``b`` is read
        off one instruction-by-instruction pass of the reference core.
        """
        reference = create_game("pong")
        reference.interpreter = "reference"
        block = create_game("pong")
        for frame in range(3):
            word = (frame * 2654435761) & 0xFFFF
            before = reference.save_state()
            reference.cycle_budget = 0
            reference.step(word)  # the frame's preamble, no instruction
            base_cycles = reference.cpu.cycles
            prefixes = []  # (cycles used, state) after each instruction
            used = 0
            while True:
                used += reference.cpu.step_instruction()
                reference.cpu.cycles = base_cycles + used
                prefixes.append((used, machine_state(reference)))
                if reference.cpu._yielded or reference.cpu.halted:
                    break
            assert used > 2000  # a real frame, not an early HALT
            k = 0
            for budget in range(1, used + 1):
                while prefixes[k][0] < budget:
                    k += 1
                block.load_state(before)
                block.cycle_budget = budget
                block.step(word)
                assert machine_state(block) == prefixes[k][1], (frame, budget)
            # The prefix table is the reference's own answer.
            for budget in (1, 2, used // 3, used - 1, used):
                reference.load_state(before)
                reference.cycle_budget = budget
                reference.step(word)
                block.load_state(before)
                block.cycle_budget = budget
                block.step(word)
                assert machine_state(block) == machine_state(reference)
            reference.cycle_budget = block.cycle_budget = used
            reference.load_state(before)
            reference.step(word)
        assert block.cpu_stats()["block_invalidations"] == 0

    #: Two frames of a counted loop with an if/else in its body; on one
    #: pass the loop's first member patches an immediate in its second.
    SMC_FROM_MEMBER = """
        start:
            LDI  r0, 0
            LDI  r1, 4
        loop:
            CMPI r1, 2
            JNZ  body           ; the taken arm starts a second member
            LD   r5, [r0+patch+2]
            ADDI r5, 0x10
            MOV  r4, r1         ; r4 = 2: the address is not a literal
            ST   [r4+patch], r5
        body:
            ADDI r3, 1
        patch:
            ADDI r2, 1          ; immediate grows by 0x10 per frame
            ADDI r1, 0xFFFF
            JNZ  loop
            YIELD
            JMP  start
    """

    def test_store_from_one_member_into_another(self):
        block, reference = boot_pair(self.SMC_FROM_MEMBER)
        run_frames_in_step(block, reference, frames=1)
        compiled = block.blocks_compiled
        assert block.block_invalidations == 0
        run_frames_in_step(block, reference, frames=3)
        # The store left the region mid-way; its stale entries went on the
        # next dispatch and fresh ones were compiled over the new bytes.
        assert block.block_invalidations > 0
        assert block.blocks_compiled > compiled
        assert block.regs[2] == reference.regs[2] > 4 * 4

    def test_unrelated_store_on_guarded_page_keeps_region(self):
        source = """
        start:
            LDI  r0, 0
            LDI  r1, 6
        loop:
            LD   r2, [r0+0x01F0]    ; data word on the code page
            MOV  r3, r1
            LDI  r4, 1
            AND  r3, r4
            JZ   even
            ADDI r2, 3
            JMP  store
        even:
            ADDI r2, 1
        store:
            ST   [r0+0x01F0], r2    ; dirties the guard page every pass
            ADDI r1, 0xFFFF
            JNZ  loop
            YIELD
            JMP  start
        """
        block, reference = boot_pair(source)
        run_frames_in_step(block, reference, frames=3)
        compiled = block.blocks_compiled
        run_frames_in_step(block, reference, frames=10)
        assert block.blocks_compiled == compiled
        assert block.block_invalidations == 0
        assert block.block_revalidations > 0
        assert block.memory.read_word(0x01F0) == 13 * (3 * 3 + 3 * 1)

    @pytest.mark.parametrize("budget", [700, 1500, 2400])
    def test_entry_at_a_mid_region_pc(self, budget):
        """A state captured mid-frame resumes at whatever pc it stopped
        on — inside pong's drawing loops for these budgets — on machines
        that never ran the code before it, by savestate and by delta."""
        donor = create_game("pong")
        donor.interpreter = "reference"
        for frame in range(5):
            donor.step(frame * 0x1234 & 0xFFFF)
        donor.cycle_budget = budget
        donor.step(0x0102)
        assert not donor.cpu._yielded  # stopped by the budget, mid-loop
        donor.cycle_budget = 20_000

        reference = create_game("pong")
        reference.interpreter = "reference"
        reference.load_state(donor.save_state())
        loaded = create_game("pong")
        loaded.load_state(donor.save_state())
        patched = create_game("pong")
        for frame in range(2):  # same lineage, compiled regions, other pc
            patched.step(0)
        patched.apply_delta(donor.save_delta())
        for frame in range(30):
            word = frame * 0x0F0F & 0xFFFF
            for console in (reference, loaded, patched):
                console.step(word)
            assert machine_state(loaded) == machine_state(reference), frame
            assert machine_state(patched) == machine_state(reference), frame

    def test_add_hook_on_a_region_page_flushes_it(self):
        """The region spans pages 1 and 2; hooking page 2 makes half of
        it interpreter territory and every compiled closure stale."""
        source = """
        .org 0x01E8
        start:
            LDI  r0, 0
            LDI  r1, 5
        loop:
            ADDI r2, 3
            MOV  r3, r2
            LDI  r4, 1
            AND  r3, r4
            JZ   skip
            ADDI r5, 1
        skip:
            ST   [r0+0x0240], r2    ; lands on page 2
            ADDI r1, 0xFFFF
            JNZ  loop
            YIELD
            JMP  start
        """
        program = assemble(source)
        assert program.origin + len(program.code) > 0x0200
        cores = []
        for __ in range(2):
            memory = Memory()
            memory.load(program.origin, program.code)
            cpu = Cpu(memory)
            cpu.reset(program.entry)
            cores.append(cpu)
        block, reference = cores
        run_frames_in_step(block, reference, frames=3)
        assert block.block_fallback_steps == 0
        compiled = block.blocks_compiled
        logs = []
        for cpu in cores:
            log = []
            logs.append(log)
            cpu.memory.add_hook(
                0x0200, 0x0300, write=lambda address, value, log=log: log.append(
                    (address, value)
                )
            )
        run_frames_in_step(block, reference, frames=3)
        assert block.blocks_compiled > compiled
        assert block.block_fallback_steps > 0  # page 2 is table-stepped now
        assert logs[0] == logs[1] and logs[0]


    def test_translations_are_not_shared_across_hook_layouts(self):
        """Same bytes, different bus: a literal store the first machine
        folded to plain RAM must still reach the second machine's hook."""
        source = """
        start:
            LDI  r0, 0
            LDI  r1, 7
            ST   [r0+0x4000], r1
            YIELD
            JMP  start
        """
        plain = boot(source)
        plain.run_frame_blocks(100)
        assert plain.memory.read_word(0x4000) == 7
        hooked, reference = boot_pair(source)
        logs = ([], [])
        for cpu, log in zip((hooked, reference), logs):
            cpu.memory.add_hook(
                0x4000, 0x4002, write=lambda a, v, log=log: log.append((a, v))
            )
        run_frames_in_step(hooked, reference, frames=2)
        assert logs[0] == logs[1] == [(0x4000, 7), (0x4001, 0)] * 2

    @pytest.mark.parametrize("jump", ["JZ", "JNZ", "JLT", "JGE", "JLE", "JGT"])
    def test_lazy_flag_word_at_its_boundaries(self, jump):
        """Conditional jumps read Z and N off the last result itself."""
        for value in (0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF):
            source = f"""
                LD   r1, [r0+0x4000]
                ADD  r1, r0         ; sets the flags from the loaded value
                {jump} taken
                LDI  r3, 1
                HALT
            taken:
                LDI  r3, 2
                HALT
            """
            block, reference = boot_pair(source)
            for cpu in (block, reference):
                cpu.memory.write_word(0x4000, value)
            run_frames_in_step(block, reference, frames=1)

    def test_word_store_straddling_the_region_start(self):
        """A word stored one byte below the entry pc rewrites the entry
        instruction's register byte: the loop must leave and re-decode."""
        source = """
        start:
            YIELD
        loop:                       ; frame 2 enters the region here
            ADD  r1, r2             ; becomes ADD r1, r3 (low byte 0x13)
            LDI  r5, 0x1302         ; 0x02 keeps the YIELD above intact
            ST   [r4+loop-1], r5
            ADDI r6, 0xFFFF
            JNZ  loop
            HALT
        """
        block, reference = boot_pair(source)
        for cpu in (block, reference):
            cpu.regs[2:4] = (1, 100)
            cpu.regs[6] = 3
        run_frames_in_step(block, reference, frames=2)
        assert block.regs[1] == 1 + 100 + 100

    def test_literal_base_register_is_unknown_until_loaded(self):
        """``LDI r0, 0`` pins r0 for the members after the entry member,
        not for the entry member's own instructions above it."""
        source = """
        start:
            ADDI r1, 1
            ST   [r0+0x4000], r1    ; r0 is 6 on the first pass
            LDI  r0, 0
            CMPI r1, 3
            JNZ  start
            ST   [r0+0x4010], r1
            HALT
        """
        block, reference = boot_pair(source)
        for cpu in (block, reference):
            cpu.regs[0] = 6
        run_frames_in_step(block, reference, frames=1)
        assert block.memory.read_word(0x4006) == 1

        source = """
        start:
            CMPI r1, 0
            JZ   other              ; leaves before r0 is loaded
            LDI  r0, 0
        other:
            ST   [r0+0x4000], r2
            HALT
        """
        block, reference = boot_pair(source)
        for cpu in (block, reference):
            cpu.regs[0] = 6
            cpu.regs[2] = 9
        run_frames_in_step(block, reference, frames=1)
        assert block.memory.read_word(0x4006) == 9

    def test_own_bytes_store_leaves_with_live_flags(self):
        """The store turns the compare after it into NOPs, so the jump
        reads the flags of the ADDI before it: an exit through a store
        must materialise flags a later instruction would have killed."""
        source = """
            LDI  r1, 5
            ADDI r1, 0xFFFB         ; r1 = 0: Z set
            ST   [r4+patch], r5     ; r5 = 0, the NOP word; r4 = 0
        patch:
            CMPI r1, 7              ; 0x3110 0x0007 -> NOP NOP
            JZ   taken
            LDI  r3, 1
            HALT
        taken:
            LDI  r3, 2
            HALT
        """
        block, reference = boot_pair(source)
        run_frames_in_step(block, reference, frames=1)
        assert block.regs[3] == 2


# ----------------------------------------------------------------------
# Property: generated structured programs, block against reference.
# ----------------------------------------------------------------------
_SCRATCH = ("r1", "r2", "r3", "r4", "r5")
_COUNTERS = ("r10", "r11", "r12")  # one per nesting depth, never scratch

_alu = st.tuples(
    st.sampled_from(("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "MUL")),
    st.sampled_from(_SCRATCH),
    st.sampled_from(_SCRATCH),
).map(lambda t: ("alu",) + t)
_addi = st.tuples(
    st.sampled_from(_SCRATCH), st.integers(0, 0xFFFF)
).map(lambda t: ("addi",) + t)
_memory = st.tuples(
    st.sampled_from(("ST", "STB", "LD", "LDB")),
    st.sampled_from(_SCRATCH),
    st.sampled_from(_SCRATCH),
).map(lambda t: ("memory",) + t)
_code_page_store = st.sampled_from(_SCRATCH).map(lambda r: ("code_page_store", r))


def _statements(depth: int):
    simple = st.one_of(_alu, _addi, _memory, _code_page_store)
    if depth == len(_COUNTERS):
        return st.lists(simple, min_size=1, max_size=4)
    inner = _statements(depth + 1)
    diamond = st.tuples(
        st.sampled_from(_SCRATCH),
        st.integers(0, 0xFFFF),
        st.sampled_from(("JZ", "JNZ", "JLT", "JGE", "JLE", "JGT")),
        inner,
        inner,
    ).map(lambda t: ("diamond",) + t)
    loop = st.tuples(st.integers(1, 4), inner).map(
        lambda t: ("loop", depth) + t
    )
    return st.lists(st.one_of(simple, diamond, loop), min_size=1, max_size=4)


def _render(statements, lines, labels):
    for statement in statements:
        kind = statement[0]
        if kind == "alu":
            lines.append(f"{statement[1]} {statement[2]}, {statement[3]}")
        elif kind == "addi":
            lines.append(f"ADDI {statement[1]}, {statement[2]}")
        elif kind == "memory":
            __, op, address, value = statement
            lines.append("LDI r7, 0x00FF")  # confine the address to a window
            lines.append(f"MOV r6, {address}")
            lines.append("AND r6, r7")
            if op in ("ST", "STB"):
                lines.append(f"{op} [r6+0x4000], {value}")
            else:
                lines.append(f"{op} {value}, [r6+0x4000]")
        elif kind == "code_page_store":
            lines.append(f"ST [r0+0x02F0], {statement[1]}")  # a guarded page
        elif kind == "diamond":
            __, reg, literal, jump, then_part, else_part = statement
            n = labels[0] = labels[0] + 1
            lines.append(f"CMPI {reg}, {literal}")
            lines.append(f"{jump} else_{n}")
            _render(then_part, lines, labels)
            lines.append(f"JMP end_{n}")
            lines.append(f"else_{n}:")
            _render(else_part, lines, labels)
            lines.append(f"end_{n}:")
        else:
            __, depth, count, body = statement
            n = labels[0] = labels[0] + 1
            counter = _COUNTERS[depth]
            lines.append(f"LDI {counter}, {count}")
            lines.append(f"loop_{n}:")
            _render(body, lines, labels)
            lines.append(f"ADDI {counter}, 0xFFFF")
            lines.append(f"JNZ loop_{n}")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    statements=_statements(0),
    seeds=st.lists(st.integers(0, 0xFFFF), min_size=5, max_size=5),
    budget=st.integers(20, 3000),
)
def test_generated_structured_programs_match_reference(statements, seeds, budget):
    """Nested counted loops and if/else diamonds over ALU ops, byte and
    word loads and stores: 50 frames of block against reference, with a
    budget small enough to run out inside the loops on many examples."""
    lines = ["start:", "LDI r0, 0"]
    _render(statements, lines, [0])
    lines += ["YIELD", "JMP start"]
    block, reference = boot_pair("\n".join(lines))
    assume(len(assemble(".org 0x0100\n" + "\n".join(lines)).code) < 0x01F0)
    for cpu in (block, reference):
        cpu.regs[1:6] = seeds
    run_frames_in_step(block, reference, frames=50, budget=budget)
