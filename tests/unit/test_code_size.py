"""Size ratchet for the package, the protocol core and the RC-16 CPU.

The engine, the ``src/repro/core`` package, ``emulator/cpu.py`` and
``src/repro`` as a whole may not grow silently, and neither may the
engine's phase machine.  The bounds below are the line
counts the code last landed at, and the phases and timer kinds it has; a
change that needs more raises the bound in the same diff and says why in
its change notes, and a change that shrinks the code lowers it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CORE = SRC / "core"

#: Every ``.py`` file under ``src/repro``, in lines.  Measurement code
#: lives in ``tests/`` and ``benchmarks/``, not in the package.
SRC_MAX_LINES = 18629
#: ``src/repro/core/engine.py``, in lines.
ENGINE_MAX_LINES = 1167
#: Every ``.py`` file under ``src/repro/core``, in lines.
CORE_MAX_LINES = 7034
#: ``src/repro/emulator/cpu.py``, in lines.
CPU_MAX_LINES = 1178
#: The engine's ``PHASE_*`` and ``TIMER_*`` constants.
ENGINE_PHASES = 8
ENGINE_TIMER_KINDS = 7


def count_lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def test_src_within_its_bound():
    lines = sum(count_lines(path) for path in sorted(SRC.rglob("*.py")))
    assert lines <= SRC_MAX_LINES, (
        f"src/repro is {lines} lines, over its bound of {SRC_MAX_LINES}"
    )


def test_engine_within_its_bound():
    lines = count_lines(CORE / "engine.py")
    assert lines <= ENGINE_MAX_LINES, (
        f"engine.py is {lines} lines, over its bound of {ENGINE_MAX_LINES}"
    )


def test_core_within_its_bound():
    lines = sum(count_lines(path) for path in sorted(CORE.rglob("*.py")))
    assert lines <= CORE_MAX_LINES, (
        f"src/repro/core is {lines} lines, over its bound of {CORE_MAX_LINES}"
    )


def test_cpu_within_its_bound():
    lines = count_lines(SRC / "emulator" / "cpu.py")
    assert lines <= CPU_MAX_LINES, (
        f"emulator/cpu.py is {lines} lines, over its bound of {CPU_MAX_LINES}"
    )


def engine_constants(prefix: str) -> list:
    """Module-level names in ``engine.py`` that start with ``prefix``."""
    tree = ast.parse((CORE / "engine.py").read_text(encoding="utf-8"))
    return [
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith(prefix)
    ]


def test_phase_count_is_pinned():
    phases = engine_constants("PHASE_")
    assert len(phases) == ENGINE_PHASES, phases


def test_timer_kind_count_is_pinned():
    kinds = engine_constants("TIMER_")
    assert len(kinds) == ENGINE_TIMER_KINDS, kinds
