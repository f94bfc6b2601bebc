"""The golden-table file format shared by the core and ideal goldens.

A golden is one JSON object per file, keyed by cell, with one cell per
line and keys sorted, so a re-mint diffs cell by cell.  :func:`mint`
prints every added, moved or dropped cell with the fields that changed
(or that nothing moved) before it writes the file.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "goldens"


def load(path: Path) -> dict:
    with path.open() as f:
        return json.load(f)


def render(cells: dict) -> str:
    """The canonical text of a golden: one sorted cell per line."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def golden_changes(old: dict, new: dict) -> list[str]:
    """One line per added, moved or dropped cell, naming what changed."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if before == after:
            continue
        if before is None:
            lines.append(f"added   {key}: {json.dumps(after, sort_keys=True)}")
        elif after is None:
            lines.append(f"dropped {key}")
        else:
            moved = ", ".join(
                f"{field} {before.get(field)} -> {after.get(field)}"
                for field in sorted(before.keys() | after.keys())
                if before.get(field) != after.get(field)
            )
            lines.append(f"moved   {key}: {moved}")
    return lines


def mint(path: Path, cells: dict) -> None:
    """List what moved against the golden at ``path``, then rewrite it."""
    old = load(path) if path.exists() else {}
    changes = golden_changes(old, cells)
    for line in changes:
        print(line)
    if not changes:
        print(f"no cell moved: all {len(cells)} cells match the golden")
    path.write_text(render(cells))
    print(f"wrote {len(cells)} cells to {path}")
