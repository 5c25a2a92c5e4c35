"""Size ratchet for the protocol core.

The engine and the ``src/repro/core`` package may not grow silently.  The
bounds below are the line counts the code last landed at; a change that
needs more lines raises the bound in the same diff and says why in its
change notes, and a change that shrinks the code lowers it.
"""

from pathlib import Path

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"

#: ``src/repro/core/engine.py``, in lines.
ENGINE_MAX_LINES = 1559
#: Every ``.py`` file under ``src/repro/core``, in lines.
CORE_MAX_LINES = 7928


def count_lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


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
