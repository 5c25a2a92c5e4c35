"""DESIGN.md §4 lists every module of ``src/repro``.

The inventory is a tree in a fenced block: a name ending in ``/`` opens a
package for the deeper-indented lines under it, a name ending in ``.py``
is a module, and ``a.py / b.py`` lists two on one line.  A package's
``__init__.py`` is covered by the package's own line.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"


def inventory() -> set:
    """Repo-relative paths of the modules DESIGN.md §4 lists."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 4. System inventory", 1)[1]
    block = section.split("```", 2)[1]
    listed = set()
    packages = []  # (indent, name) of the enclosing packages
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip())
        field = re.split(r"\s{2,}", line.strip(), maxsplit=1)[0]
        while packages and packages[-1][0] >= indent:
            packages.pop()
        prefix = "".join(name for __, name in packages)
        for name in field.split(" / "):
            if name.endswith("/"):
                packages.append((indent, name))
            elif name.endswith(".py"):
                listed.add(prefix + name)
    return listed


def test_every_module_is_in_the_inventory():
    modules = {
        str(path.relative_to(ROOT))
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    missing = sorted(modules - inventory())
    assert not missing, f"missing from DESIGN.md §4: {missing}"


def test_every_listed_module_exists():
    stale = sorted(
        path
        for path in inventory()
        if path.startswith("src/repro/") and not (ROOT / path).exists()
    )
    assert not stale, f"DESIGN.md §4 lists modules that do not exist: {stale}"
