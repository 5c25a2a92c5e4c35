"""docs/observability.md documents every trace record kind and every metric.

The trace table's first column names each record kind the engine and its
parts emit: every string-literal first argument of an ``.emit(`` or
``trace(`` call in ``src/repro/core`` and ``src/repro/obs``, plus the two
kinds ``StallLadder._record`` takes as a variable.  The metric table's
first column names every ``METRIC_CATALOG`` row.
"""

import ast
import re
from pathlib import Path

from repro.obs.catalog import METRIC_CATALOG

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"

#: Kinds recorded through a variable (``StallLadder._record(level, …)``).
VARIABLE_KINDS = {"degraded", "suspended"}


def emitted_kinds() -> set:
    kinds = set(VARIABLE_KINDS)
    for package in ("core", "obs"):
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                first = node.args[0]
                if (
                    name in ("emit", "trace")
                    and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ):
                    kinds.add(first.value)
    return kinds


def first_column(heading: str) -> set:
    """Backticked names in the first column of the table under ``heading``."""
    section = DOC.read_text(encoding="utf-8").split(heading, 1)[1]
    section = section.split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([a-z_0-9]+)`", line.split("|")[1]))
    return names


def test_every_emitted_kind_is_documented():
    kinds = emitted_kinds()
    assert len(kinds) >= 37
    missing = sorted(kinds - first_column("## Trace record schema"))
    assert not missing, f"trace kinds missing from docs/observability.md: {missing}"


def test_every_documented_kind_is_emitted():
    stale = sorted(first_column("## Trace record schema") - emitted_kinds())
    assert not stale, f"docs/observability.md documents unrecorded kinds: {stale}"


def test_metric_table_matches_the_catalog():
    documented = first_column("## Metric catalog")
    assert sorted(set(METRIC_CATALOG) - documented) == []
    assert sorted(documented - set(METRIC_CATALOG)) == []
