"""The change log stays readable: each entry is a short note.

``CHANGES.md`` is one top-level ``- PR <n>...`` bullet per change, its
continuation lines indented.  An entry holds at most 15 lines and 2,500
bytes; raw per-run numbers and test-by-test lists belong in the
change's description, not here.  Every bullet naming one PR counts toward
that PR's entry, so a ``- PR <n> (cont.):`` bullet does not buy a second
allowance.
"""

from __future__ import annotations

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"
FIRST_BOUNDED_PR = 1
MAX_LINES = 15
MAX_BYTES = 2_500


def _entries(text: str) -> list[tuple[int, str]]:
    """``(PR number, entry text)`` per PR: all its ``- PR <n>`` bullets, joined."""
    starts = list(re.finditer(r"^- PR (\d+)\b", text, flags=re.MULTILINE))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    entries: dict[int, list[str]] = {}
    for match, end in zip(starts, ends):
        entries.setdefault(int(match.group(1)), []).append(
            text[match.start():end].rstrip("\n")
        )
    return [(number, "\n".join(bullets)) for number, bullets in entries.items()]


def test_entries_are_found():
    numbers = [number for number, _ in _entries(CHANGES.read_text(encoding="utf-8"))]
    assert FIRST_BOUNDED_PR in numbers
    assert len(numbers) > FIRST_BOUNDED_PR // 2


def test_every_entry_is_at_most_15_lines_and_2500_bytes():
    oversized = [
        f"PR {number}: {len(entry.splitlines())} lines, {len(entry.encode('utf-8'))} bytes"
        for number, entry in _entries(CHANGES.read_text(encoding="utf-8"))
        if number >= FIRST_BOUNDED_PR
        and (len(entry.splitlines()) > MAX_LINES or len(entry.encode("utf-8")) > MAX_BYTES)
    ]
    assert not oversized, oversized

