"""Parabolic classification: the basic reducedness count and the 59-entry table.

A parabolic whose grading has at most one non-reduced positive weight is
weakly ample outright; the bundled table lists the E7/E8 colourings with
two or more, which are exactly the ones needing deformation arguments.

The counts come from one array kernel over blocks of colourings, which
builds no grading.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grading import NO_WHITE_VERTEX, NOT_A_VERTEX, out_of_range
from .report import Report
from .rootsys import RootSystem, as_integers, build_root_system, parse_type
from .walkdiag import CaseDataError, _check_colouring, data_path


class TableEntry(NamedTuple):
    index: int
    group: str  # E7 or E8
    black: tuple[int, ...]


def load_table() -> tuple[TableEntry, ...]:
    """Entries of `table.txt` in the data directory.  The file is parsed
    once, and again only if the data directory it resolves to changes."""
    return _parse_table(data_path("table.txt"))


@lru_cache(maxsize=1)
def _parse_table(path: Path) -> tuple[TableEntry, ...]:
    entries: dict[int, TableEntry] = {}
    colourings: dict[tuple[str, tuple[int, ...]], int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = line.split()
            if len(words) != 5 or words[0] != "entry" or words[3] != "black":
                raise ValueError(f"expected 'entry N GROUP black VERTICES', got {line!r}")
            idx, group, verts = words[1], words[2], words[4]
            e = TableEntry(int(idx), group, tuple(int(x) for x in verts.split(",")))
            _check_colouring(f"entry {e.index}", group, e.black)
            colouring = (group, tuple(sorted(e.black)))
            if e.index in entries:
                raise ValueError(f"entry {e.index} is defined twice")
            if colouring in colourings:
                raise ValueError(f"entry {e.index} repeats the colouring of "
                                 f"entry {colourings[colouring]}")
            entries[e.index] = e
            colourings[colouring] = e.index
        except Exception as exc:
            raise CaseDataError(f"{path}:{lineno}: {exc}") from exc
    if len(entries) != 59:
        raise CaseDataError(f"{path}: expected 59 entries, found {len(entries)}")
    return tuple(entries.values())


class ScanRecord(NamedTuple):
    black: tuple[int, ...]
    nonreduced: int

    @property
    def basic_lemma_weakly_ample(self) -> bool:
        return self.nonreduced <= 1


# Keys per block of colourings, at most 2^16: a colouring's index in its block is two bytes.
_SCAN_BLOCK = 1 << 14


def nonreduced_counts(rs: RootSystem, blacks: Sequence[Sequence[int]]) -> np.ndarray:
    """The number of non-reduced positive weights of each colouring of rs
    whose black vertices are given, in blocks of colourings.  A positive root's
    key for colouring j of a block is j as two big-endian bytes, then its
    uint8 row of rs.positive_array with the black columns zeroed: chi != 0 is
    non-reduced when its key with the coefficient bytes doubled (at most 12)
    is a key too."""
    rows = rs.positive_array
    n, rank = rows.shape
    cols = np.array(as_integers(chain.from_iterable(blacks), NOT_A_VERTEX), dtype=np.intp) - 1
    owner = np.repeat(np.arange(len(blacks)), [len(black) for black in blacks])
    if len(outside := owner[(cols < 0) | (cols >= rank)]):
        black = as_integers(blacks[outside[0]], NOT_A_VERTEX)
        raise ValueError(f"colouring {black}: {out_of_range(rs, black)}")
    white = np.ones((len(blacks), rank), dtype=np.uint8)
    white[owner, cols] = 0
    if not white.any(axis=1).all():
        raise ValueError(NO_WHITE_VERTEX)

    counts = np.zeros(len(blacks), dtype=np.int64)
    per_block = max(1, _SCAN_BLOCK // n)
    double = np.array([1, 1] + [2] * rank, dtype=np.uint8)
    for start in range(0, len(blacks), per_block):
        block = white[start:start + per_block]
        b = len(block)
        keys = np.empty((b, n, rank + 2), dtype=np.uint8)
        keys[..., :2] = np.arange(b, dtype=">u2").view(np.uint8).reshape(b, 1, 2)
        keys[..., 2:] = rows * block[:, None]
        keys = np.sort(keys.view(f"S{rank + 2}").ravel(), kind="stable")
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # each weight once
        u8 = keys.view(np.uint8).reshape(len(keys), rank + 2)
        twice = (u8 * double).view(keys.dtype).ravel()
        hit = keys[np.minimum(np.searchsorted(keys, twice), len(keys) - 1)] == twice
        hit &= u8[:, 2:].any(axis=1)  # the Levi's zero weight is its own double
        counts[start:start + b] = np.bincount(u8[hit, :2].view(">u2").ravel(), minlength=b)
    return counts


def scan_parabolics(rs: RootSystem) -> list[ScanRecord]:
    """Non-reduced weight counts for all 2^rank - 1 proper colourings, by
    number of black vertices and then lexicographically."""
    vertices = range(1, rs.rank + 1)
    blacks = [black for k in range(rs.rank) for black in combinations(vertices, k)]
    counts = nonreduced_counts(rs, blacks).tolist()
    return [ScanRecord(black, count) for black, count in zip(blacks, counts)]


def check_table() -> Report:
    """One line per table entry: it must have >= 2 non-reduced positive weights."""
    entries = load_table()
    counts = {}
    for group in {e.group for e in entries}:
        mine = [e for e in entries if e.group == group]
        rs = build_root_system(*parse_type(group))
        counts.update(zip(mine, nonreduced_counts(rs, [e.black for e in mine]).tolist()))
    report = Report()
    for e in entries:
        report.add(f"table entry {e.index}", counts[e] >= 2, f"nonreduced count {counts[e]}")
    return report


def match_table_entry(group: str, black) -> int | None:
    """Table entry whose colouring equals the given one, if any."""
    black = tuple(sorted(black))
    for e in load_table():
        if e.group == group and tuple(sorted(e.black)) == black:
            return e.index
    return None
