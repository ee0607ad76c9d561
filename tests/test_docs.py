"""The architecture map stays true to the tree.

``docs/architecture.md`` is a map of the code as it stands.  Two checks
keep it one:

* every citation of a map section -- the map's path, a comma, then the
  section title in double quotes -- names a heading of the map once
  whitespace is collapsed (the title's leading words are enough), so no
  file points a reader at a section that is gone;
* every backticked fully qualified ``repro`` name in README.md and
  ``docs/*.md`` imports and resolves, so no document names a module,
  class or function that is gone.

CHANGES.md is the project's history and may name whatever it deleted,
so it is not scanned.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAP = ROOT / "docs" / "architecture.md"

#: Where map citations are looked for: directories are searched for
#: Python and markdown files.
CITING = (
    ROOT / "src",
    ROOT / "tests",
    ROOT / "README.md",
    ROOT / "ROADMAP.md",
    ROOT / "docs",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
)

#: The map's path (backticked or not), a comma, a double-quoted title
#: that may run over several lines.
CITATION = re.compile(r'docs/architecture\.md`*,\s+"([^"]+)"')

#: A backticked dotted name rooted at the ``repro`` package.
NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _headings() -> list[str]:
    """The map's headings, without their ``#`` marks; fenced code skipped."""
    headings, fenced = [], False
    for line in MAP.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            headings.append(_collapse(line.lstrip("#")))
    return headings


def _citing_files() -> list[Path]:
    files = []
    for root in CITING:
        if root.is_dir():
            files += sorted(p for pattern in ("*.py", "*.md") for p in root.rglob(pattern))
        elif root.exists():
            files.append(root)
    return files


def _names_a_heading(title: str, headings: list[str]) -> bool:
    """Whether *title* is a heading or its leading words."""
    return any(
        heading == title or (heading.startswith(title) and not heading[len(title)].isalnum())
        for heading in headings
    )


def _resolves(name: str) -> bool:
    """Whether *name* is a module, or an attribute path under the
    longest prefix of it that imports."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                owner = getattr(owner, attr)
        except AttributeError:
            return False
        return True
    return False


def test_every_map_citation_names_a_heading():
    headings = _headings()
    cited, broken = 0, []
    for path in _citing_files():
        text = path.read_text(encoding="utf-8")
        for match in CITATION.finditer(text):
            cited += 1
            title = _collapse(match.group(1))
            if not _names_a_heading(title, headings):
                line = text.count("\n", 0, match.start()) + 1
                broken.append(f"{path.relative_to(ROOT)}:{line}: {title!r}")
    assert cited, "no map citation found: the citation pattern matches nothing"
    assert not broken, "citations of map sections that do not exist:\n" + "\n".join(broken)


def test_every_documented_repro_name_resolves():
    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    named, broken = 0, []
    for path in documents:
        for name in sorted(set(NAME.findall(path.read_text(encoding="utf-8")))):
            named += 1
            if not _resolves(name):
                broken.append(f"{path.relative_to(ROOT)}: {name}")
    assert named, "no backticked repro name found: the name pattern matches nothing"
    assert not broken, "documented names that do not resolve:\n" + "\n".join(broken)
