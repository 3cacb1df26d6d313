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

from .grading import NO_WHITE_VERTEX, NOT_A_VERTEX, ColouredDiagram, compute_grading, out_of_range
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


# Keys per block of colourings, which bounds the kernel's temporaries.
_SCAN_BLOCK = 1 << 14


def nonreduced_counts(rs: RootSystem, blacks: Sequence[Sequence[int]]) -> np.ndarray:
    """The number of non-reduced positive weights of each colouring of rs
    whose black vertices are given, counted on integer keys in blocks of
    colourings.  A positive root's key is the mixed-radix value of its white
    coefficients with radix 2b - 1, b the highest root's coefficient plus
    one, so doubling never carries: chi != 0 is non-reduced when 2 key(chi)
    is a key too.  Colourings whose keys could pass 2^62 are counted on
    their grading, whose keys are byte strings."""
    pos = rs.positive_array
    n, rank = pos.shape
    radix = 2 * pos[-1] + 1  # the highest root is the last by height
    sizes = np.fromiter(map(len, blacks), dtype=np.intp, count=len(blacks))
    cols = np.array(as_integers(chain.from_iterable(blacks), NOT_A_VERTEX), dtype=np.intp) - 1
    owner = np.repeat(np.arange(len(blacks)), sizes)
    if len(outside := owner[(cols < 0) | (cols >= rank)]):
        black = as_integers(blacks[outside[0]], NOT_A_VERTEX)
        raise ValueError(f"colouring {black}: {out_of_range(rs, black)}")
    white = np.ones((len(blacks), rank), dtype=bool)
    white[owner, cols] = False
    if not white.any(axis=1).all():
        raise ValueError(NO_WHITE_VERTEX)

    counts = np.zeros(len(blacks), dtype=np.int64)
    per_block = max(1, _SCAN_BLOCK // n)
    # Keys k * per_block + j below 2^61 by the rounded logarithm stay below 2^62.
    wide = white @ np.log2(radix) >= 61 - np.log2(per_block)
    for c in np.flatnonzero(wide):
        g = compute_grading(ColouredDiagram(rs, frozenset(blacks[c])))
        counts[c] = len(g.positive_nonreduced_weights())
    kept = np.flatnonzero(~wide)
    for block in np.split(kept, range(per_block, len(kept), per_block)):
        b = len(block)
        r = np.where(white[block], radix, 1)
        place = np.cumprod(r[:, ::-1], axis=1)[:, ::-1] // r * white[block]
        # Colouring j's key k is k * b + j, so doubling k adds k * b.
        keys = np.sort((pos @ place.T) * b + np.arange(b), axis=None, kind="stable")
        keys = keys[np.diff(keys, prepend=-1) != 0]  # each weight once
        twice = 2 * keys - keys % b
        hit = keys[np.minimum(np.searchsorted(keys, twice), len(keys) - 1)] == twice
        counts[block] = np.bincount(keys[hit & (keys >= b)] % b, minlength=b)
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
