"""Every function, class and method in ``src/repro/core`` has a caller.

A definition that no program file names is code only its own unit test
runs: it costs lines and review time and protects nothing.  This scans
``src/``, ``benchmarks/`` and ``examples/`` (their ``tests`` folders
excluded) and requires each definition's name at least once besides the
definition itself: as a name, an attribute, an import or a word inside a
string that is not a docstring (the session tracer names its targets as
``"module:Class.method"`` strings).  Dunder methods are called by Python
itself and are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORE = ROOT / "src" / "repro" / "core"

#: Definitions kept although no program file names them.
NAMED_ONLY_BY_TESTS = {
    # The arcade-like tap input behind the tier-1 predictor-floor gate.
    "TapSource",
    # The union of SET[k] that the merge property tests bound merges by.
    "controlled_mask",
    # How the rollback hand-over test sees a lag shrink's drops are over.
    "lag_drain_remaining",
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _program_files():
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names(tree: ast.AST):
    """Every identifier ``tree`` uses, docstrings excluded."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            yield from _WORD.findall(node.value)


def _used_names() -> Counter:
    used = Counter()
    for path in _program_files():
        used.update(_names(_parse(path)))
    return used


def _core_definitions():
    for path in sorted(CORE.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, _DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield f"{path.relative_to(ROOT)}:{node.lineno}", node.name


def test_every_core_definition_is_named_by_a_program_file():
    used = _used_names()
    unnamed = sorted(
        f"{where} {name}"
        for where, name in _core_definitions()
        if not used[name] and name not in NAMED_ONLY_BY_TESTS
    )
    assert not unnamed, (
        "definitions in src/repro/core that no program file names (delete "
        "them, or allowlist one with a reason):\n  " + "\n  ".join(unnamed)
    )


def test_allowlist_holds_only_unnamed_definitions():
    """An allowlisted name that gains a caller leaves the list."""
    used = _used_names()
    defined = {name for __, name in _core_definitions()}
    assert NAMED_ONLY_BY_TESTS <= defined
    assert not {name for name in NAMED_ONLY_BY_TESTS if used[name]}
