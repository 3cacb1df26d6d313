"""Parabolic classification: the basic reducedness count and the 59-entry table.

A parabolic whose grading has at most one non-reduced positive weight is
weakly ample outright; the bundled table lists the E7/E8 colourings with
two or more, which are exactly the ones needing deformation arguments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from .grading import ColouredDiagram, diagram, compute_grading
from .report import Report
from .rootsys import RootSystem
from .walkdiag import CaseDataError, data_path


@dataclass(frozen=True)
class TableEntry:
    index: int
    group: str  # E7 or E8
    black: tuple[int, ...]


def load_table(path: Path | None = None) -> tuple[TableEntry, ...]:
    """Entries of the table at `path`, by default the bundled `table.txt`.
    The default file is parsed once, and again only if the data directory
    it resolves to changes."""
    if path is not None:
        return _parse_table(path)
    return _parse_default_table(data_path("table.txt"))


def _parse_table(path: Path) -> tuple[TableEntry, ...]:
    entries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            _, idx, group, _black, verts = line.split()
            entries.append(TableEntry(int(idx), group, tuple(int(x) for x in verts.split(","))))
        except Exception as exc:
            raise CaseDataError(f"{path}:{lineno}: {exc}") from exc
    if len(entries) != 59:
        raise CaseDataError(f"{path}: expected 59 entries, found {len(entries)}")
    return tuple(entries)


_parse_default_table = lru_cache(maxsize=1)(_parse_table)


@dataclass(frozen=True)
class ScanRecord:
    black: tuple[int, ...]
    nonreduced: int

    @property
    def basic_lemma_weakly_ample(self) -> bool:
        return self.nonreduced <= 1


def scan_parabolics(rs: RootSystem) -> list[ScanRecord]:
    """Non-reduced weight counts for all 2^rank - 1 proper colourings."""
    records = []
    vertices = range(1, rs.rank + 1)
    for k in range(rs.rank):
        for black in combinations(vertices, k):
            g = compute_grading(ColouredDiagram(rs, frozenset(black)))
            records.append(ScanRecord(black, len(g.positive_nonreduced_weights())))
    return records


def check_table(entries: Sequence[TableEntry] | None = None) -> Report:
    """One line per table entry: it must have >= 2 non-reduced positive weights."""
    if entries is None:
        entries = load_table()
    report = Report()
    for e in entries:
        count = len(compute_grading(diagram(e.group, e.black)).positive_nonreduced_weights())
        report.add(f"table entry {e.index}", count >= 2, f"nonreduced count {count}")
    return report


def match_table_entry(group: str, black, entries: Sequence[TableEntry] | None = None) -> int | None:
    """Table entry whose colouring equals the given one, if any."""
    if entries is None:
        entries = load_table()
    black = tuple(sorted(black))
    for e in entries:
        if e.group == group and tuple(sorted(e.black)) == black:
            return e.index
    return None
