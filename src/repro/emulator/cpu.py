"""The RC-16 CPU.

A deliberately small 16-bit fantasy ISA, rich enough to write real games in
assembly yet simple enough that the emulation is obviously deterministic:

* sixteen 16-bit registers ``R0..R15`` (``R15`` is the stack pointer by
  convention; the console initializes it to ``0xDFFE``),
* flags ``Z`` and ``N`` set by ``CMP``/``CMPI`` and arithmetic,
* little-endian 16-bit words; instructions are one word —
  ``opcode(8) | ra(4) | rb(4)`` — plus an optional immediate word.

Frame semantics: the console runs the CPU until it executes ``YIELD`` (wait
for vertical blank) or exhausts the per-frame cycle budget, whichever comes
first.  ``HALT`` stops the program permanently (the machine keeps stepping,
frozen).

Two interpreters execute the same ISA (see docs/performance.md):

* :meth:`Cpu.run_frame_blocks` — the block-translation path: the blocks
  reachable from an entry pc through static jumps are traced once and
  compiled, as one *region*, to a single Python closure (fused operand
  decode, registers and flags held in locals across the blocks,
  superinstruction peepholes for the hot pairs), guarded against
  self-modifying code by the memory bus's dirty-page generations, and
  entered through a dict keyed by entry pc, so a loop — branches in its
  body included — executes with zero per-instruction dispatch; what no
  block covers (hooked fetches, blacklisted pcs, budget tails) is
  single-stepped through the reference interpreter,
* :meth:`Cpu.run_frame_reference` / :meth:`Cpu.step_instruction` — the
  straight-line reference interpreter retained verbatim from the original
  implementation: the spec, and the block path's single-step fallback.

The determinism contract — enforced by the golden-trace tests — is that
both produce bit-identical machine states for any program.
"""

from __future__ import annotations

import functools
import struct
from typing import Dict, List, Optional, Tuple

from repro.emulator.machine import MachineError
from repro.emulator.memory import Memory

# Opcodes ---------------------------------------------------------------
NOP = 0x00
HALT = 0x01
YIELD = 0x02

LDI = 0x10  # ra = imm
MOV = 0x11  # ra = rb
LD = 0x12  # ra = word[rb + imm]
ST = 0x13  # word[rb + imm] = ra
LDB = 0x14  # ra = byte[rb + imm]
STB = 0x15  # byte[rb + imm] = ra

ADD = 0x20
SUB = 0x21
AND = 0x22
OR = 0x23
XOR = 0x24
SHL = 0x25
SHR = 0x26
MUL = 0x27
ADDI = 0x28  # ra += imm

CMP = 0x30  # flags(ra - rb)
CMPI = 0x31  # flags(ra - imm)

JMP = 0x40
JZ = 0x41
JNZ = 0x42
JLT = 0x43
JGE = 0x44
CALL = 0x45
RET = 0x46
JLE = 0x47
JGT = 0x48

PUSH = 0x50
POP = 0x51

#: Opcodes followed by an immediate word.
HAS_IMMEDIATE = {
    LDI, LD, ST, LDB, STB, ADDI, CMPI, JMP, JZ, JNZ, JLT, JGE, CALL, JLE, JGT
}

#: opcode → mnemonic: the legal opcodes, for the region tracer, the
#: disassembler and error messages.
MNEMONICS: Dict[int, str] = {
    NOP: "NOP", HALT: "HALT", YIELD: "YIELD",
    LDI: "LDI", MOV: "MOV", LD: "LD", ST: "ST", LDB: "LDB", STB: "STB",
    ADD: "ADD", SUB: "SUB", AND: "AND", OR: "OR", XOR: "XOR",
    SHL: "SHL", SHR: "SHR", MUL: "MUL", ADDI: "ADDI",
    CMP: "CMP", CMPI: "CMPI",
    JMP: "JMP", JZ: "JZ", JNZ: "JNZ", JLT: "JLT", JGE: "JGE",
    CALL: "CALL", RET: "RET", JLE: "JLE", JGT: "JGT",
    PUSH: "PUSH", POP: "POP",
}

SP = 15  # stack pointer register
INITIAL_SP = 0xDFFE

_STATE = struct.Struct(">16HHBBB")  # regs, pc, z, n, halted


class CpuFault(MachineError):
    """An illegal instruction or stack fault; carries the PC."""


# ----------------------------------------------------------------------
# Region translation (see docs/performance.md, "Block translation").
#
# The unit of translation is a *region*: every extended block reachable
# from an entry pc through static successors — both arms of a conditional
# jump, JMP targets, fall-through — that lie inside the guard span: from
# the entry pc to the end of the dirty-tracking page after its own
# (_MAX_BLOCK_PAGES pages in all; a jump below the entry pc leaves).
# Its *members* are split at the region's leaders: the entry pc plus
# every in-span target of a conditional jump or of a backward JMP.  A
# member runs from its leader to the next leader, a backward or
# out-of-span JMP, CALL/RET, HALT/YIELD, the span limit or an
# illegal/hooked fetch; inside it
#
# * a *forward* JMP to a non-leader is traced through (the skipped bytes
#   stay in the guarded range but generate no code),
# * a conditional jump leaves on the taken path and falls through
#   otherwise, so an if/else chain is one member.
#
# (Inlining forward CALLs with a speculative RET check was tried and
# measured a net loss on every ROM here: the merged code unions so many
# registers that every entry pays for the worst path.)
#
# A region compiles — via generated Python source — into one closure
# ``fn(budget)`` returning ``(next_pc, cycles_used)``.  A region with no
# internal jump is straight-line code.  Otherwise every member is a
# ``while`` on the budget rule (it runs only while its full cost fits what
# is left), a jump to itself is that loop's ``continue``, and the members
# sit in an ``if pc == ...`` chain inside one ``while True:`` that a jump
# to another member re-enters — so a loop with an if/else in its body
# never leaves the closure:
#
# * operand decode is fused away: register indices and immediates are
#   baked into the source as literals,
# * registers live in Python locals across member boundaries, loaded once
#   on entry and flushed only on the way out — a dynamic target (RET), a
#   jump out of the region, CALL, HALT/YIELD, a store into the region's
#   own bytes, or a member whose full cost no longer fits the budget,
# * flags are one lazy local ``f`` (the last flag-setting result):
#   conditional jumps test it directly and only the way out materialises
#   ``cpu.z``/``cpu.n`` from it,
# * peepholes fall out of two per-member dataflow passes: dead-flag
#   elimination turns ADDI+CMPI into a bare add plus one flag word and
#   fuses CMP+Jcc into a compare-and-branch, while constant propagation
#   turns LDI+ST into a literal store (and folds constant addresses).
#
# Correctness against self-modifying code: each region records the dirty
# generations of every page its bytes span (at most _MAX_BLOCK_PAGES);
# the dispatch loop revalidates on mismatch by comparing the code bytes
# (cheap, and immune to false invalidation from data colocated on a code
# page).  A store *inside* a region that hits the region's own byte range
# exits right after the storing instruction with the architectural state
# exact.  Fetches from MMIO-hooked pages are never compiled — the
# reference interpreter steps them — and hook-layout changes flush the
# whole cache via the bus's hooks epoch.
# ----------------------------------------------------------------------

#: Instructions one region may hold, over all its members.
_MAX_BLOCK_INSTRS = 256
#: Span ceiling in 256-byte dirty-tracking pages: bounds the guard chain
#: length and the bytes a revalidation has to compare.  Measured sweet
#: spot: wider spans merge code that rarely executes together, and the
#: longer guard chain taxes every dispatch.
_MAX_BLOCK_PAGES = 2
#: After this many invalidations at one entry pc the pc is blacklisted to
#: the reference interpreter — a pathological self-patching loop must not
#: pay a recompile per execution.
_BLOCK_INVAL_LIMIT = 32

#: Conditional jumps as tests on the lazy flag word ``f``: Z is
#: ``f == 0`` and N is ``f >= 0x8000``.
_COND_EXPR = {
    JZ: "not f", JNZ: "f", JLT: "f >= 0x8000", JGE: "f < 0x8000",
    JLE: "not 0 < f < 0x8000", JGT: "0 < f < 0x8000",
}
_COND_JUMPS = frozenset(_COND_EXPR)
#: What can end a member; a conditional jump only leaves on its taken arm.
_TERMINATORS = frozenset((JMP, CALL, RET, HALT, YIELD))
_FLAG_SETTERS = frozenset((ADD, SUB, AND, OR, XOR, SHL, SHR, MUL, ADDI, CMP, CMPI))
_MIDBLOCK_STORES = frozenset((ST, STB, PUSH))
#: The flag word's index in the generator's register dataflow sets.
_FLAGS = 16
#: Set in a looping region's ``pc`` local when control leaves the region —
#: also for a target that is a member's pc: after a HALT/YIELD, a store
#: into the region's bytes or a RET, the dispatch loop must decide.
_LEAVE = 0x10000

_ALU_EXPR = {
    ADD: "({a} + {b}) & 0xFFFF",
    SUB: "({a} - {b}) & 0xFFFF",
    AND: "{a} & {b}",
    OR: "{a} | {b}",
    XOR: "{a} ^ {b}",
    SHL: "({a} << ({b} & 0x0F)) & 0xFFFF",
    SHR: "({a} >> ({b} & 0x0F)) & 0xFFFF",
    MUL: "({a} * {b}) & 0xFFFF",
}
_ALU_FN = {
    ADD: lambda a, b: (a + b) & 0xFFFF,
    SUB: lambda a, b: (a - b) & 0xFFFF,
    AND: lambda a, b: a & b,
    OR: lambda a, b: a | b,
    XOR: lambda a, b: a ^ b,
    SHL: lambda a, b: (a << (b & 0x0F)) & 0xFFFF,
    SHR: lambda a, b: (a >> (b & 0x0F)) & 0xFFFF,
    MUL: lambda a, b: (a * b) & 0xFFFF,
}

#: (addr, opcode, ra, rb, imm, cost, next_pc)
_Instr = Tuple[int, int, int, int, int, int, int]
#: (leader pc, instructions, terminating opcode or None for fall-through)
_Member = Tuple[int, List[_Instr], Optional[int]]


class _Block:
    """One compiled region (metadata; the dispatch loop works off a flat
    list entry — index beats attribute lookup on the hot path).  ``start``
    is the entry pc and ``start``..``end`` the guarded byte range."""

    __slots__ = ("start", "end", "fn", "code", "pages", "source")


# Dispatch-cache entry layout: [fn, block, p0, g0, p1, g1, ...] — a
# variable-length tail of (page, guard-generation) pairs, one per page the
# region's bytes span.
_E_FN, _E_BLOCK = range(2)
_E_GUARDS = 2

#: Returned by a region closure whose guard or budget pre-check failed;
#: the dispatch loop distinguishes it by its zero cycle count (a real
#: region always consumes at least one cycle).
_MISS = (0, 0)

#: Process-wide cache of compiled region code objects, keyed by generated
#: source (which embeds every literal, so equal source means equal code).
#: ``compile()`` is ~0.5 ms per member — the bulk of a machine's warmup —
#: and every same-ROM machine in the process (multi-site sessions, bench
#: repeats) generates identical sources, so they share one compile.  The
#: per-machine closure state is bound by exec-ing the cached code object.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_LIMIT = 4096
#: Process-wide memo of the translation itself: (entry pc, the bytes of
#: its guard span, the bus's page-plainness table) — everything tracing
#: and generation read — to (source, end).  Same-ROM machines skip both,
#: and code that is patched back and forth between a few variants (the
#: ``smc`` ROM) finds each variant again instead of re-deriving it.
_TRANSLATIONS: Dict[tuple, Tuple[str, int]] = {}


def _flag_liveness(instrs: List[_Instr]) -> List[bool]:
    """Backward pass: ``dead[i]`` is True iff instruction i's flag update
    is overwritten before any conditional jump, early exit, or the
    member's end can observe it (exits must leave ``cpu.z/n`` exact)."""
    last = len(instrs) - 1
    dead = [False] * len(instrs)
    live = True  # flags flowing out of the member are architectural state
    for i in range(last, -1, -1):
        op = instrs[i][1]
        if op in _FLAG_SETTERS:
            dead[i] = not live
            live = False
        if op in _COND_JUMPS:
            live = True
        elif op in _MIDBLOCK_STORES and i < last:
            live = True  # the store's in-region-SMC exit flushes flags
    return dead


@functools.lru_cache(maxsize=None)  # at most 2 x 65,536 instruction words
def _register_effects(
    op: int, ra: int, rb: int, sets_flags: bool
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(reads, writes) of one instruction over r0..r15 and ``_FLAGS``."""
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    if op == LDI:
        writes = (ra,)
    elif op in (MOV, LD, LDB):
        reads = (rb,)
        writes = (ra,)
    elif op in (ST, STB, CMP):
        reads = (ra, rb)
    elif op in _ALU_EXPR:
        reads = (ra, rb)
        writes = (ra,)
    elif op == ADDI:
        reads = (ra,)
        writes = (ra,)
    elif op == CMPI:
        reads = (ra,)
    elif op == PUSH:
        reads = (ra, SP)
        writes = (SP,)
    elif op == POP:
        reads = (SP,)
        writes = (ra, SP)
    elif op in (CALL, RET):
        reads = (SP,)
        writes = (SP,)
    elif op in _COND_JUMPS:
        reads = (_FLAGS,)
    if sets_flags:
        writes += (_FLAGS,)
    return reads, writes


def _generate_region_source(
    members: List[_Member],
    mem_plain: Optional[bytearray] = None,
    mem_plain_word: Optional[bytearray] = None,
) -> Tuple[str, int]:
    """Render a traced region (entry member first) to Python source;
    returns it with the (unmasked) end of the bytes its members span.

    ``mem_plain``/``mem_plain_word`` are the bus's page-plainness tables,
    consulted at *generation* time to fold the plainness branch away for
    constant addresses.  This is sound because ``add_hook`` is the only
    writer of those tables and every hook install bumps the hooks epoch,
    which flushes the whole block cache before the next dispatch.

    The source defines ``_make(...)`` whose captured-argument closure
    ``block(budget)`` validates its own guard and budget (returning the
    ``_MISS`` sentinel on failure, so the dispatch hot path is one dict
    lookup plus one call), runs members until one leaves the region, and
    returns ``(next_pc, cycles)`` — with ``cycles`` negated when the
    region ended the frame via HALT/YIELD.  A member only starts when its
    full cost fits what is left of the budget; otherwise the region
    returns that member's pc and the dispatch loop single-steps the tail.
    """
    start = members[0][0]  # also the lowest address: tracing walks forward
    end = max(  # unmasked byte end
        ins[0] + 2 * ins[5] for __, instrs, __t in members for ins in instrs
    )

    entry_instrs, entry_terminator = members[0][1:]
    looping = (
        len(members) > 1
        or any(ins[1] in _COND_JUMPS and ins[4] == start for ins in entry_instrs)
        or (entry_terminator == JMP and entry_instrs[-1][4] == start)
    )
    # Registers the region holds at one literal: the entry member loads it
    # before its first way out, and no instruction of the region writes the
    # register anything else (``LDI r0, 0`` as the absolute-address base is
    # the idiom).  Every later member starts with them known.
    pinned: Dict[int, int] = {}
    for ins in entry_instrs:
        if ins[1] in _COND_JUMPS:
            break
        if ins[1] == LDI:
            pinned.setdefault(ins[2], ins[4])
    for __, instrs, __t in members:
        for ins in instrs:
            for r in _register_effects(ins[1], ins[2], ins[3], False)[1]:
                if r in pinned and (ins[1] != LDI or ins[4] != pinned[r]):
                    del pinned[r]
    # Collected while the members are emitted, for the prologue and the
    # epilogue: the registers some member reads before writing them, and
    # everything any member writes (``_FLAGS`` stands for the flag word).
    exposed: set = set()
    written: set = set()

    base = "        "
    indent = base
    lines: List[str] = []

    def emit(text: str) -> None:
        lines.append(indent + text)

    def emit_flush(dirty, pad: str = "") -> None:
        for r in sorted(dirty):
            if r == _FLAGS:
                emit(f"{pad}cpu.z = f == 0")
                emit(f"{pad}cpu.n = f >= 0x8000")
            else:
                emit(f"{pad}regs[{r}] = r{r}")

    def word_plain(a: int) -> Optional[bool]:
        """Compile-time plainness of a constant word access, if known."""
        if mem_plain_word is None:
            return None
        return bool(mem_plain_word[a])

    def byte_plain(a: int) -> Optional[bool]:
        if mem_plain is None:
            return None
        return bool(mem_plain[a >> 8])

    def emit_word_store(aexpr: str, a_const: Optional[int], vexpr: str,
                        v_const: Optional[int]) -> None:
        if a_const == 0xFFFF:  # wrapping store: always the slow path
            emit(f"write_word({a_const}, {vexpr})")
            return
        if a_const is not None:
            known = word_plain(a_const)
            if known is not None:
                if known:
                    if v_const is not None:
                        emit(f"data[{a_const}] = {v_const & 0xFF}")
                        emit(f"data[{a_const + 1}] = {v_const >> 8}")
                    else:
                        emit(f"data[{a_const}] = {vexpr} & 0xFF")
                        emit(f"data[{a_const + 1}] = {vexpr} >> 8")
                    emit(f"page_gen[{a_const >> 8}] = gen")
                    emit(f"page_gen[{(a_const + 1) >> 8}] = gen")
                else:
                    emit(f"write_word({a_const}, {vexpr})")
                return
            emit(f"if plain_word[{a_const}]:")
            if v_const is not None:
                emit(f"    data[{a_const}] = {v_const & 0xFF}")
                emit(f"    data[{a_const + 1}] = {v_const >> 8}")
            else:
                emit(f"    data[{a_const}] = {vexpr} & 0xFF")
                emit(f"    data[{a_const + 1}] = {vexpr} >> 8")
            emit(f"    page_gen[{a_const >> 8}] = gen")
            emit(f"    page_gen[{(a_const + 1) >> 8}] = gen")
        else:
            emit(f"if plain_word[{aexpr}]:")
            if v_const is not None:
                emit(f"    data[{aexpr}] = {v_const & 0xFF}")
                emit(f"    data[{aexpr} + 1] = {v_const >> 8}")
            else:
                emit(f"    data[{aexpr}] = {vexpr} & 0xFF")
                emit(f"    data[{aexpr} + 1] = {vexpr} >> 8")
            emit(f"    page_gen[{aexpr} >> 8] = gen")
            emit(f"    page_gen[({aexpr} + 1) >> 8] = gen")
        emit("else:")
        emit(f"    write_word({aexpr}, {vexpr})")

    # The helpers below read the member being emitted through the loop's
    # ``member_pc``, ``dirty`` and ``const``.
    def emit_leave(target, prefix: int, pad: str = "", stops: bool = False) -> None:
        """Return to the dispatch loop at ``target`` (a pc or the local
        holding one) after ``prefix`` cycles of this member; ``stops``
        marks a frame-ending HALT/YIELD by negating the cycle count."""
        if looping:
            emit(f"{pad}pc = {target} | {_LEAVE}")
            if stops:
                emit(f"{pad}n_cycles = -(n_cycles + {prefix})")
            else:
                emit(f"{pad}n_cycles += {prefix}")
            emit(f"{pad}break")
        else:
            emit_flush(dirty, pad)
            emit(f"{pad}return ({target}, {-prefix if stops else prefix})")

    def emit_goto(target: int, prefix: int, pad: str = "") -> None:
        """Transfer to the static successor ``target``."""
        if target not in inside:
            emit_leave(target, prefix, pad)
            return
        emit(f"{pad}n_cycles += {prefix}")
        if target == member_pc:
            emit(f"{pad}continue")
        else:
            emit(f"{pad}pc = {target}")
            emit(f"{pad}break")

    def emit_smc_check(aexpr: str, a_const: Optional[int], word: bool,
                       nxt: int, prefix: int) -> bool:
        """Exit the region if a store just patched its own byte range;
        True when it provably did, so the member's remainder is dead."""
        first = start - 1 if word else start  # a word at start-1 hits byte 0
        if a_const is not None:
            hit = first <= a_const < end or (
                word and start == 0 and a_const == 0xFFFF
            )
            if hit:  # else provably outside the region: no check emitted
                emit_leave(nxt, prefix)
            return hit
        cond = f"{first} <= {aexpr} < {end}"
        if word and start == 0:
            cond = f"({cond}) or {aexpr} == 0xFFFF"
        emit(f"if {cond}:")
        emit_leave(nxt, prefix, "    ")
        return False

    def resolve_addr(rb: int, imm: int) -> Tuple[str, Optional[int]]:
        if rb in const:
            value = (const[rb] + imm) & 0xFFFF
            return str(value), value
        if imm == 0:
            return f"r{rb}", None
        emit(f"ta = (r{rb} + {imm}) & 0xFFFF")
        return "ta", None

    # Each member of a looping region is its own ``while`` on the budget
    # rule: a jump to itself is that loop's ``continue``; any other way
    # out sets ``pc`` and breaks to the chain of members, which finds the
    # next one or — ``_LEAVE`` set — none, and falls out to the epilogue.
    # Members inside the most backward jumps go first in the chain.
    chained = len(members) > 1
    inside = {pc for pc, __, __t in members}
    back_edges = [
        (ins[4], ins[0])
        for __, instrs, __t in members for ins in instrs
        if (ins[1] == JMP or ins[1] in _COND_JUMPS) and start <= ins[4] <= ins[0]
    ]
    members = sorted(
        members,
        key=lambda m: (-sum(t <= m[0] <= a for t, a in back_edges), m[0]),
    )
    for position, (member_pc, instrs, terminator) in enumerate(members):
        if looping:
            indent = base
            if chained:
                indent += "    "
                emit(f"{'elif' if position else 'if'} pc == {member_pc}:")
                indent += "    "
            emit(f"while n_cycles + {sum(ins[5] for ins in instrs)} <= budget:")
            indent += "    "
        dead = _flag_liveness(instrs)
        dirty: set = set()  # what the member has written so far
        const = dict(pinned) if member_pc != start else {}
        prefix = 0

        last = len(instrs) - 1
        for i, (addr, op, ra, rb, imm, cost, nxt) in enumerate(instrs):
            prefix += cost
            reads, writes = _register_effects(
                op, ra, rb, op in _FLAG_SETTERS and not dead[i]
            )
            for r in reads:
                if r not in dirty:
                    exposed.add(r)
            # This op's effects land before any exit it can emit (its
            # SMC exits observe the post-op state).
            dirty.update(writes)
            if op == NOP:
                continue
            if op == LDI:
                emit(f"r{ra} = {imm}")
                const[ra] = imm
            elif op == MOV:
                emit(f"r{ra} = r{rb}")
                if rb in const:
                    const[ra] = const[rb]
                else:
                    const.pop(ra, None)
            elif op == LD:
                aexpr, a_const = resolve_addr(rb, imm)
                if a_const == 0xFFFF:
                    emit(f"r{ra} = read_word({a_const})")
                elif a_const is not None and word_plain(a_const) is True:
                    emit(f"r{ra} = data[{a_const}] | (data[{a_const + 1}] << 8)")
                elif a_const is not None and word_plain(a_const) is False:
                    emit(f"r{ra} = read_word({a_const})")
                elif a_const is not None:
                    emit(f"if plain_word[{a_const}]:")
                    emit(f"    r{ra} = data[{a_const}] | (data[{a_const + 1}] << 8)")
                    emit("else:")
                    emit(f"    r{ra} = read_word({a_const})")
                else:
                    emit(f"if plain_word[{aexpr}]:")
                    emit(f"    r{ra} = data[{aexpr}] | (data[{aexpr} + 1] << 8)")
                    emit("else:")
                    emit(f"    r{ra} = read_word({aexpr})")
                const.pop(ra, None)
            elif op == ST:
                aexpr, a_const = resolve_addr(rb, imm)
                if ra in const:
                    vexpr, v_const = str(const[ra]), const[ra]
                else:
                    vexpr, v_const = f"r{ra}", None
                emit_word_store(aexpr, a_const, vexpr, v_const)
                if emit_smc_check(aexpr, a_const, True, nxt, prefix):
                    break
            elif op == LDB:
                aexpr, a_const = resolve_addr(rb, imm)
                if a_const is not None and byte_plain(a_const) is True:
                    emit(f"r{ra} = data[{a_const}]")
                elif a_const is not None and byte_plain(a_const) is False:
                    emit(f"r{ra} = read_byte({a_const})")
                elif a_const is not None:
                    emit(f"if plain[{a_const >> 8}]:")
                    emit(f"    r{ra} = data[{a_const}]")
                    emit("else:")
                    emit(f"    r{ra} = read_byte({a_const})")
                else:
                    emit(f"if plain[{aexpr} >> 8]:")
                    emit(f"    r{ra} = data[{aexpr}]")
                    emit("else:")
                    emit(f"    r{ra} = read_byte({aexpr})")
                const.pop(ra, None)
            elif op == STB:
                aexpr, a_const = resolve_addr(rb, imm)
                if ra in const:
                    vexpr, vraw = str(const[ra] & 0xFF), str(const[ra])
                else:
                    vexpr, vraw = f"r{ra} & 0xFF", f"r{ra}"
                if a_const is not None and byte_plain(a_const) is True:
                    emit(f"data[{a_const}] = {vexpr}")
                    emit(f"page_gen[{a_const >> 8}] = gen")
                elif a_const is not None and byte_plain(a_const) is False:
                    emit(f"write_byte({a_const}, {vraw})")
                elif a_const is not None:
                    emit(f"if plain[{a_const >> 8}]:")
                    emit(f"    data[{a_const}] = {vexpr}")
                    emit(f"    page_gen[{a_const >> 8}] = gen")
                    emit("else:")
                    emit(f"    write_byte({a_const}, {vraw})")
                else:
                    emit(f"if plain[{aexpr} >> 8]:")
                    emit(f"    data[{aexpr}] = {vexpr}")
                    emit(f"    page_gen[{aexpr} >> 8] = gen")
                    emit("else:")
                    emit(f"    write_byte({aexpr}, {vraw})")
                if emit_smc_check(aexpr, a_const, False, nxt, prefix):
                    break
            elif op in _ALU_EXPR:
                if ra in const and rb in const:
                    value = _ALU_FN[op](const[ra], const[rb])
                    const[ra] = value
                    emit(f"r{ra} = {value}" if dead[i] else f"r{ra} = f = {value}")
                else:
                    a_expr = str(const[ra]) if ra in const else f"r{ra}"
                    b_expr = str(const[rb]) if rb in const else f"r{rb}"
                    expr = _ALU_EXPR[op].format(a=a_expr, b=b_expr)
                    const.pop(ra, None)
                    emit(f"r{ra} = {expr}" if dead[i] else f"r{ra} = f = {expr}")
            elif op == ADDI:
                if ra in const:
                    value = const[ra] = (const[ra] + imm) & 0xFFFF
                    emit(f"r{ra} = {value}" if dead[i] else f"r{ra} = f = {value}")
                elif dead[i]:
                    emit(f"r{ra} = (r{ra} + {imm}) & 0xFFFF")
                else:
                    emit(f"r{ra} = f = (r{ra} + {imm}) & 0xFFFF")
            elif op == CMP:
                if dead[i]:
                    pass
                elif ra in const and rb in const:
                    emit(f"f = {(const[ra] - const[rb]) & 0xFFFF}")
                else:
                    a_expr = str(const[ra]) if ra in const else f"r{ra}"
                    b_expr = str(const[rb]) if rb in const else f"r{rb}"
                    emit(f"f = ({a_expr} - {b_expr}) & 0xFFFF")
            elif op == CMPI:
                if dead[i]:
                    pass
                elif ra in const:
                    emit(f"f = {(const[ra] - imm) & 0xFFFF}")
                else:
                    emit(f"f = (r{ra} - {imm}) & 0xFFFF")
            elif op == PUSH:
                if ra in const:
                    vexpr, v_const = str(const[ra]), const[ra]
                elif ra == SP:
                    emit("tv = r15")  # PUSH r15 stores the pre-decrement value
                    vexpr, v_const = "tv", None
                else:
                    vexpr, v_const = f"r{ra}", None
                emit("r15 = (r15 - 2) & 0xFFFF")
                const.pop(SP, None)
                emit_word_store("r15", None, vexpr, v_const)
                emit_smc_check("r15", None, True, nxt, prefix)
            elif op == POP:
                emit("if plain_word[r15]:")
                emit("    t = data[r15] | (data[r15 + 1] << 8)")
                emit("else:")
                emit("    t = read_word(r15)")
                emit("r15 = (r15 + 2) & 0xFFFF")
                emit(f"r{ra} = t")  # POP r15: loaded value wins over increment
                const.pop(SP, None)
                const.pop(ra, None)
            elif op == HALT or op == YIELD:
                emit("cpu.halted = True" if op == HALT else "cpu._yielded = True")
                emit_leave(nxt, prefix, stops=True)
            elif op == JMP:
                if i == last:  # else traced through: the target follows inline
                    emit_goto(imm, prefix)
            elif op in _COND_JUMPS:
                emit(f"if {_COND_EXPR[op]}:")
                emit_goto(imm, prefix, "    ")
            elif op == CALL:
                emit("r15 = (r15 - 2) & 0xFFFF")
                emit_word_store("r15", None, str(nxt), nxt)
                emit_leave(imm, prefix)
            elif op == RET:
                emit("if plain_word[r15]:")
                emit("    t = data[r15] | (data[r15 + 1] << 8)")
                emit("else:")
                emit("    t = read_word(r15)")
                emit("r15 = (r15 + 2) & 0xFFFF")
                emit_leave("t", prefix)
        else:
            if terminator is None:
                emit_goto(instrs[last][6], prefix)
        written |= dirty
        if chained:
            indent = indent[:-4]
            emit("else:")
            emit("    break")  # out of budget: leave with pc at this member
    if chained:
        indent = base + "    "
        emit("else:")
        emit("    break")

    # A straight-line region loads what it reads before writing, and each
    # of its exits flushed what its path had dirtied so far.  Members of a
    # looping region can start with any of its writes done or not, so it
    # loads everything it touches and leaves through one epilogue that
    # flushes everything it writes.
    load = exposed | written if looping else exposed
    checks = [f"budget < {sum(ins[5] for ins in entry_instrs)}"]
    for k, page in enumerate(range(start >> 8, ((end - 1) >> 8) + 1)):
        checks.append(f"page_gen[{page}] != entry[{_E_GUARDS + 2 * k + 1}]")
    if _FLAGS in load:
        checks.append("(cpu.z and cpu.n)")  # no flag word encodes both
    head = [
        "def _make(cpu, regs, memory, data, plain, plain_word, page_gen,"
        " read_word, write_word, read_byte, write_byte, entry, miss):",
        "    def block(budget):",
        f"{base}if {' or '.join(checks)}:",
        f"{base}    return miss",
    ]
    for r in sorted(load):
        if r == _FLAGS:
            head.append(f"{base}f = 0 if cpu.z else 0x8000 if cpu.n else 1")
        else:
            head.append(f"{base}r{r} = regs[{r}]")
    if any(
        ins[1] in _MIDBLOCK_STORES or ins[1] == CALL
        for __, instrs, __t in members for ins in instrs
    ):
        head.append(f"{base}gen = memory._gen")
    if looping:
        head.append(f"{base}n_cycles = 0")
        head.append(f"{base}pc = {start}")
        if chained:
            head.append(f"{base}while True:")
        indent = base
        emit_flush(written)
        emit("return (pc & 0xFFFF, n_cycles)")
    return "\n".join(head + lines) + "\n    return block\n", end


class Cpu:
    """One RC-16 core attached to a :class:`~repro.emulator.memory.Memory`."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.regs = [0] * 16
        self.pc = 0
        self.z = False
        self.n = False
        self.halted = False
        self.cycles = 0
        # Block-translation cache: entry pc → flat dispatch entry (see
        # _E_* layout), guarded by the dirty generations of the pages each
        # block spans (see run_frame_blocks).
        self._blocks: Dict[int, list] = {}
        # Negative cache: pcs where tracing produced nothing, valid while
        # the pc's page generation is unchanged.
        self._no_block: Dict[int, int] = {}
        self._inval_counts: Dict[int, int] = {}
        self._hooks_epoch_seen = -1
        # Telemetry (monotonic; read by repro.obs and bench JSON).
        self.blocks_compiled = 0
        self.block_hits = 0
        self.block_invalidations = 0
        self.block_revalidations = 0
        # Instructions block mode single-stepped by the reference interpreter.
        self.block_fallback_steps = 0

    def reset(self, entry: int) -> None:
        # In-place: compiled blocks capture this exact list object.
        self.regs[:] = (0,) * 16
        self.regs[SP] = INITIAL_SP
        self.pc = entry & 0xFFFF
        self.z = False
        self.n = False
        self.halted = False
        self.cycles = 0

    # ------------------------------------------------------------------
    def _set_flags(self, value: int) -> None:
        value &= 0xFFFF
        self.z = value == 0
        self.n = bool(value & 0x8000)

    def _fetch_word(self) -> int:
        word = self.memory.read_word(self.pc)
        self.pc = (self.pc + 2) & 0xFFFF
        return word

    def _push(self, value: int) -> None:
        sp = (self.regs[SP] - 2) & 0xFFFF
        self.regs[SP] = sp
        self.memory.write_word(sp, value & 0xFFFF)

    def _pop(self) -> int:
        sp = self.regs[SP]
        value = self.memory.read_word(sp)
        self.regs[SP] = (sp + 2) & 0xFFFF
        return value

    # ------------------------------------------------------------------
    # Block translation.
    # ------------------------------------------------------------------
    def _trace_region(self, start: int, span_end: int) -> List[_Member]:
        """Decode the region entered at ``start``, whose guard span ends at
        ``span_end``, into its members.

        Returns the members, entry first then in discovery order, or an
        empty list when nothing compilable begins at ``start`` (hooked or
        wrapping fetch, immediate illegal opcode).  Decoding stops
        *before* an illegal opcode so the reference interpreter faults
        with the exact pc, and at the span limit so a region's guard never
        covers more than ``_MAX_BLOCK_PAGES`` dirty pages.
        """
        memory = self.memory
        data = memory._data
        plain_word = memory._plain_word

        # Flood the static successors from ``start``, decoding each
        # reachable instruction once and collecting the leaders.
        decoded: Dict[int, _Instr] = {}
        leaders = {start: None}  # insertion-ordered set
        work = [start]
        while work:
            cur = work.pop()
            while cur not in decoded:
                if not start <= cur < span_end or not plain_word[cur]:
                    break  # out of span, hooked or wrapping fetch
                word = data[cur] | (data[cur + 1] << 8)
                opcode = word >> 8
                if opcode not in MNEMONICS:
                    break
                if opcode in HAS_IMMEDIATE:
                    ipc = cur + 2
                    if ipc > 0xFFFE or not plain_word[ipc]:
                        break
                    imm = data[ipc] | (data[ipc + 1] << 8)
                    end_raw = ipc + 2
                    cost = 2
                else:
                    imm = 0
                    end_raw = cur + 2
                    cost = 1
                if end_raw > span_end:
                    break  # would drag the guard past the span limit
                nxt = end_raw & 0xFFFF  # a wrap to 0 lands outside the span
                decoded[cur] = (
                    cur, opcode, (word >> 4) & 0x0F, word & 0x0F, imm, cost, nxt
                )
                if opcode in _COND_JUMPS or (opcode == JMP and imm <= cur):
                    if start <= imm < span_end and imm not in leaders:
                        leaders[imm] = None
                        work.append(imm)
                    if opcode == JMP:
                        break
                    cur = nxt
                elif opcode == JMP:
                    cur = imm  # forward: traced through unless a leader
                elif opcode in _TERMINATORS:
                    break  # CALL/RET/HALT/YIELD leave the region
                else:
                    cur = nxt

        members: List[_Member] = []
        room = _MAX_BLOCK_INSTRS
        for pc in leaders:
            instrs: List[_Instr] = []
            terminator = None
            cur = pc
            while room and cur in decoded:
                ins = decoded[cur]
                instrs.append(ins)
                room -= 1
                opcode, imm, cur = ins[1], ins[4], ins[6]
                if opcode == JMP and ins[0] < imm < span_end and imm not in leaders:
                    cur = imm  # traced through
                elif opcode in _TERMINATORS:
                    terminator = opcode
                    break
                elif cur in leaders:
                    break  # falls through into the next member
            if not instrs:
                if pc == start:
                    return []
                continue  # a leader nothing compilable starts at: an exit
            if instrs[-1][1] == JMP:
                terminator = JMP  # traced through to nowhere: jump out
            members.append((pc, instrs, terminator))
        return members

    def _compile_block(self, start: int) -> Optional[list]:
        memory = self.memory
        page_gen = memory._page_gen
        if self._no_block.get(start) == page_gen[start >> 8]:
            return None
        if self._inval_counts.get(start, 0) >= _BLOCK_INVAL_LIMIT:
            return None  # blacklisted: persistent self-patcher
        span_end = min(((start >> 8) + _MAX_BLOCK_PAGES) << 8, 0x10000)
        key = (start, bytes(memory._data[start:span_end]), bytes(memory._plain))
        translation = _TRANSLATIONS.get(key)
        if translation is None:
            members = self._trace_region(start, span_end)
            if not members:
                self._no_block[start] = page_gen[start >> 8]
                return None
            translation = _generate_region_source(
                members, memory._plain, memory._plain_word
            )
            if len(_TRANSLATIONS) >= _CODE_CACHE_LIMIT:
                _TRANSLATIONS.clear()
            _TRANSLATIONS[key] = translation
        source, end = translation
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()  # pathological SMC churn: start over
            code = compile(source, f"<rc16-region-0x{start:04x}>", "exec")
            _CODE_CACHE[source] = code
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        block = _Block()
        block.start = start
        block.end = end
        block.code = bytes(memory._data[start:end])
        block.pages = tuple(range(start >> 8, ((end - 1) >> 8) + 1))
        block.source = source
        # Future writes must stamp strictly newer generations than the
        # guard, or a same-generation store could slip past it.
        if any(page_gen[p] >= memory._gen for p in block.pages):
            memory._gen += 1
        # The closure reads its own guard slots from the entry list, so it
        # must exist before the closure is constructed.
        entry = [None, block]
        for p in block.pages:
            entry.append(p)
            entry.append(page_gen[p])
        fn = namespace["_make"](
            self, self.regs, memory, memory._data, memory._plain,
            memory._plain_word, page_gen, memory.read_word,
            memory.write_word, memory.read_byte, memory.write_byte,
            entry, _MISS,
        )
        entry[0] = fn
        block.fn = fn
        self._blocks[start] = entry
        self.blocks_compiled += 1
        return entry

    def _revalidate_block(self, entry: list) -> Optional[list]:
        """A guarded page was written: keep the region iff its bytes are
        intact (data colocated on a code page is the common cause)."""
        memory = self.memory
        block = entry[_E_BLOCK]
        if (
            all(memory._plain[p] for p in block.pages)
            and memory._data[block.start : block.end] == block.code
        ):
            page_gen = memory._page_gen
            if any(page_gen[p] >= memory._gen for p in block.pages):
                memory._gen += 1
            for k, p in enumerate(block.pages):
                entry[_E_GUARDS + 2 * k + 1] = page_gen[p]
            self.block_revalidations += 1
            return entry
        del self._blocks[block.start]
        self.block_invalidations += 1
        self._inval_counts[block.start] = self._inval_counts.get(block.start, 0) + 1
        return None

    def run_frame_blocks(self, max_cycles: int) -> int:
        """Execute until YIELD/HALT or the cycle budget via compiled blocks.

        Bit-for-bit equivalent to :meth:`run_frame_reference`, including
        cycle accounting: a block only runs when its full cost fits the
        remaining budget (its closure consumes exactly the cycles the
        reference would), otherwise the tail is single-stepped through
        :meth:`step_instruction`, as is every pc no block covers.
        """
        self._yielded = False
        if self.halted:
            return 0
        memory = self.memory
        if memory._hooks_epoch != self._hooks_epoch_seen:
            # MMIO layout changed: page plainness is baked into block code.
            self._blocks.clear()
            self._no_block.clear()
            self._hooks_epoch_seen = memory._hooks_epoch
        page_gen = memory._page_gen
        plain = memory._plain
        blocks = self._blocks
        used = 0
        hits = 0
        fallback = 0
        pc = self.pc
        try:
            while used < max_cycles:
                entry = blocks.get(pc)
                if entry is not None:
                    npc, spent = entry[0](max_cycles - used)
                    if spent > 0:
                        pc = npc
                        used += spent
                        hits += 1
                        continue
                    if spent < 0:  # HALT/YIELD: the frame ends here
                        pc = npc
                        used -= spent
                        hits += 1
                        break
                    # miss: stale guard or budget tail
                    stale = False
                    for j in range(_E_GUARDS, len(entry), 2):
                        if page_gen[entry[j]] != entry[j + 1]:
                            stale = True
                            break
                    if stale:
                        # Refreshed guards retry; an invalidated block is
                        # recompiled by the entry-is-None path next pass.
                        self._revalidate_block(entry)
                        continue
                    # guard intact: the remaining budget is too small for
                    # the whole block — single-step the tail below.
                elif plain[pc >> 8] and self._compile_block(pc) is not None:
                    continue
                self.pc = pc
                try:
                    used += self.step_instruction()
                finally:
                    pc = self.pc
                fallback += 1
                if self.halted or self._yielded:
                    break
        finally:
            self.pc = pc
            self.block_hits += hits
            self.block_fallback_steps += fallback
        self.cycles += used
        return used

    def run_frame_reference(self, max_cycles: int) -> int:
        """The original if/elif interpreter, retained as the golden
        reference for the determinism contract (and as the seed baseline
        for the benchmark trajectory)."""
        used = 0
        while used < max_cycles and not self.halted:
            used += self.step_instruction()
            if self._yielded:
                break
        self.cycles += used
        return used

    _yielded = False

    def step_instruction(self) -> int:
        """Execute one instruction (reference path); returns its cycle cost."""
        self._yielded = False
        word = self._fetch_word()
        opcode = (word >> 8) & 0xFF
        ra = (word >> 4) & 0x0F
        rb = word & 0x0F
        cost = 1
        imm = 0
        if opcode in HAS_IMMEDIATE:
            imm = self._fetch_word()
            cost = 2

        regs = self.regs
        if opcode == NOP:
            pass
        elif opcode == HALT:
            self.halted = True
        elif opcode == YIELD:
            self._yielded = True
        elif opcode == LDI:
            regs[ra] = imm
        elif opcode == MOV:
            regs[ra] = regs[rb]
        elif opcode == LD:
            regs[ra] = self.memory.read_word((regs[rb] + imm) & 0xFFFF)
        elif opcode == ST:
            self.memory.write_word((regs[rb] + imm) & 0xFFFF, regs[ra])
        elif opcode == LDB:
            regs[ra] = self.memory.read_byte((regs[rb] + imm) & 0xFFFF)
        elif opcode == STB:
            self.memory.write_byte((regs[rb] + imm) & 0xFFFF, regs[ra])
        elif opcode == ADD:
            regs[ra] = (regs[ra] + regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == SUB:
            regs[ra] = (regs[ra] - regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == AND:
            regs[ra] &= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == OR:
            regs[ra] |= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == XOR:
            regs[ra] ^= regs[rb]
            self._set_flags(regs[ra])
        elif opcode == SHL:
            regs[ra] = (regs[ra] << (regs[rb] & 0x0F)) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == SHR:
            regs[ra] = (regs[ra] >> (regs[rb] & 0x0F)) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == MUL:
            regs[ra] = (regs[ra] * regs[rb]) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == ADDI:
            regs[ra] = (regs[ra] + imm) & 0xFFFF
            self._set_flags(regs[ra])
        elif opcode == CMP:
            self._set_flags(regs[ra] - regs[rb])
        elif opcode == CMPI:
            self._set_flags(regs[ra] - imm)
        elif opcode == JMP:
            self.pc = imm
        elif opcode == JZ:
            if self.z:
                self.pc = imm
        elif opcode == JNZ:
            if not self.z:
                self.pc = imm
        elif opcode == JLT:
            if self.n:
                self.pc = imm
        elif opcode == JGE:
            if not self.n:
                self.pc = imm
        elif opcode == JLE:
            if self.z or self.n:
                self.pc = imm
        elif opcode == JGT:
            if not (self.z or self.n):
                self.pc = imm
        elif opcode == CALL:
            self._push(self.pc)
            self.pc = imm
        elif opcode == RET:
            self.pc = self._pop()
        elif opcode == PUSH:
            self._push(regs[ra])
        elif opcode == POP:
            regs[ra] = self._pop()
        else:
            raise CpuFault(
                f"illegal opcode 0x{opcode:02x} at pc=0x{(self.pc - cost * 2) & 0xFFFF:04x}"
            )
        return cost

    # ------------------------------------------------------------------
    def save_state(self) -> bytes:
        return _STATE.pack(
            *self.regs, self.pc, int(self.z), int(self.n), int(self.halted)
        )

    def load_state(self, blob: bytes) -> None:
        if len(blob) != _STATE.size:
            raise MachineError(
                f"cpu state must be {_STATE.size} bytes, got {len(blob)}"
            )
        fields = _STATE.unpack(blob)
        self.regs[:] = fields[:16]
        self.pc = fields[16]
        self.z = bool(fields[17])
        self.n = bool(fields[18])
        self.halted = bool(fields[19])

    STATE_SIZE = _STATE.size
