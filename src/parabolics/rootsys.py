"""Root systems of the simple Lie algebras A-G in the simple-root basis.

Roots are integer coefficient vectors over a fixed numbering of the simple
roots.  The numbering used here (and by every data file in this package):

* A_n, B_n, C_n: the chain 1-2-...-n.  B_n has a short last root, C_n a
  long last root.
* D_n: the chain 1-2-...-(n-1) with vertex n attached to vertex n-2.
* E_6: the chain 1-2-3-4-5 with vertex 6 attached to vertex 3.
* E_7: the chain 1-2-3-4-5-6 with vertex 7 attached to vertex 4.
* E_8: the chain 1-2-3-4-5-6-7 with vertex 8 attached to vertex 5.
* F_4: the chain 1-2-3-4 with roots 1,2 long and 3,4 short.
* G_2: vertex 1 short, vertex 2 long.

The E_7/E_8 branch placement is not a free choice: it is the unique
assignment under which the bundled weight-diagram case data (vertex
colours, reduced/non-reduced statuses, arrow lists) is reproduced by
computation.  tests/test_walkdiag.py exercises that match in full.

A root system is held as arrays: the positive roots as one read-only
(N, rank) uint8 array in lexicographic order, built one height level at a
time with whole-array steps, and the simple-root raises of each.  Every
coefficient is at most 6, so a row read as a byte string sorts
lexicographically: gradings, root sums and colouring scans search these
rows in place.  The highest root dominates every root coefficient by
coefficient, so it is the last row.  The root tuples, the negative roots,
the root set and the root-sum table are held on the system and built on
first read; gradings and colouring scans never need them.

RootSystem(kind, rank) is the uncached build; build_root_system is the one
per-type cache over it.
"""

from __future__ import annotations

from numbers import Real
from functools import cached_property, lru_cache

import numpy as np

from .frozen import Frozen, read_only

Root = tuple[int, ...]

#: (kind, rank) -> closed-form number of positive roots.
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

#: The 32 types whose positive-root counts the verification suite checks.
ROOT_COUNT_TYPES = (*[("A", r) for r in range(1, 9)], *[("B", r) for r in range(2, 9)],
                    *[("C", r) for r in range(2, 9)], *[("D", r) for r in range(4, 9)],
                    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))

_VALID_RANKS = {
    "A": range(1, 100),
    "B": range(2, 100),
    "C": range(2, 100),
    "D": range(3, 100),
    "E": (6, 7, 8),
    "F": (4,),
    "G": (2,),
}


class InvalidTypeError(ValueError):
    """Raised for a (kind, rank) pair that is not a simple type."""


def _chain_edges(rank: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, rank)]


def dynkin_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    """Undirected edges of the Dynkin diagram, 1-based vertices."""
    if kind in ("A", "B", "C", "F", "G"):
        return _chain_edges(rank)
    if kind == "D":
        return _chain_edges(rank - 1) + [(rank - 2, rank)]
    if kind == "E":
        branch = {6: 3, 7: 4, 8: 5}[rank]
        return _chain_edges(rank - 1) + [(branch, rank)]
    raise InvalidTypeError(f"unknown kind {kind!r}")


def cartan_matrix(kind: str, rank: int) -> np.ndarray:
    """Cartan matrix C with C[i][j] = <alpha_j, alpha_i^vee> (0-based)."""
    if kind not in _VALID_RANKS or rank not in _VALID_RANKS[kind]:
        raise InvalidTypeError(f"invalid simple type {kind}{rank}")
    C = 2 * np.eye(rank, dtype=np.int64)
    for a, b in dynkin_edges(kind, rank):
        C[a - 1, b - 1] = -1
        C[b - 1, a - 1] = -1
    # Asymmetric bonds: C[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i).
    if kind == "B":  # alpha_rank short
        C[rank - 1, rank - 2] = -2
    elif kind == "C":  # alpha_rank long
        C[rank - 2, rank - 1] = -2
    elif kind == "F":  # 1,2 long; 3,4 short
        C[2, 1] = -2
    elif kind == "G":  # 1 short, 2 long
        C[0, 1] = -3
    return C


class RootSystem(Frozen):
    """Immutable root system; safe to share across workers.  RootSystem(kind,
    rank) builds one; build_root_system keeps one per type, so systems compare
    and hash by identity.  The arrays are the data; the tuple views and the
    root-sum table are made on first read and then kept.

    positive_array holds the positive roots as an (N, rank) uint8 array in
    lexicographic order, the highest root last; raised_by[k, i] says that
    positive root k + alpha_{i+1} is a root (both read-only)."""

    _repr = ("kind", "rank", "cartan")

    def __init__(self, kind: str, rank: int):
        """The full root system of a valid simple (kind, rank).

        Positive roots are generated from the simple ones by root strings: for
        a positive root b, b + alpha_i is a root iff p_i - <b, alpha_i^vee> > 0
        where p_i is the largest k with b - k*alpha_i a root (Humphreys, Lie
        Algebras, 9.4 and 10.2).  One height level is one lexicographically
        sorted uint8 array, with the string lengths strings[k, j] = p_j of its
        roots; the pairings are level @ C.T.  The accepted steps (k, i) of a
        level are its rows of raised_by, and their targets level[k] + alpha_i,
        sorted and without repeats, are the next level.  p_i of a target is
        p_i(target - alpha_i) + 1 when target - alpha_i is a positive root,
        i.e. exactly when the step (target - alpha_i, i) is taken, and 0
        otherwise.  The levels in turn, sorted once more by the same stable sort,
        are the positive roots in lexicographic order.
        """
        C = cartan_matrix(kind, rank)
        simple = np.eye(rank, dtype=np.uint8)
        level = simple[::-1]  # the simple roots, lexicographically
        strings = np.zeros((rank, rank), dtype=np.int64)
        levels, raises, row = [], [], f"S{rank}"
        while True:
            step = strings > level @ C.T
            levels.append(level)
            raises.append(step)
            k, i = step.nonzero()
            if not len(k):  # the highest root
                break
            # Coefficients are at most 6: uint8 rows sort lexicographically as bytes.
            up = (level[k] + simple[i]).view(row).ravel()
            order = up.argsort(kind="stable")
            up, k, i = up[order], k[order], i[order]
            first = np.ones(len(up), dtype=bool)
            first[1:] = up[1:] != up[:-1]
            target = first.cumsum()  # 1 + the index of each step's target
            # Each (target, i) is written once: by the step (target - alpha_i, i).
            lengths = np.zeros((target[-1], rank), dtype=np.int64)
            lengths[target - 1, i] = strings[k, i] + 1
            level, strings = up[first].view(np.uint8).reshape(-1, rank), lengths
        positive = np.concatenate(levels)
        lex = positive.view(row).ravel().argsort(kind="stable")
        positive, raised_by = read_only(positive[lex], np.concatenate(raises)[lex])
        vars(self).update(kind=kind, rank=rank, cartan=C, positive_array=positive,
                          raised_by=raised_by)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(map(tuple, self.positive_array.tolist()))

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        """The positive roots, then each of them negated."""
        negative = -self.positive_array.astype(np.int8)  # a uint8 negation would wrap
        return self.positive_roots + tuple(map(tuple, negative.tolist()))

    @cached_property
    def _root_set(self) -> frozenset[Root]:
        return frozenset(self.roots)

    def contains(self, v: Root) -> bool:
        return tuple(v) in self._root_set

    @cached_property
    def _sum_table(self) -> np.ndarray:
        n = len(self.positive_array)
        i, j = root_sum_pairs(self, np.arange(n), upper=True)
        table = np.zeros((n, n), dtype=bool)
        table[i, j] = table[j, i] = True
        return read_only(table)[0]

    @property
    def root_sum_is_root(self) -> np.ndarray:
        """Boolean table T[i, j]: positive root i + positive root j is a root,
        searched over the upper triangle and mirrored on first read."""
        return self._sum_table


# Pairs searched per block: temporaries stay O(rank) bytes a pair, not O(N^2).
_BLOCK_PAIRS = 1 << 16


def root_sum_pairs(rs: RootSystem, rows: np.ndarray,
                   upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of positive roots with i in rows (ascending) and
    root i + root j a root; if upper, every such pair with j >= i and only
    some with j < i.  A sum (coefficients at most 12) is a uint8 row, found by
    a binary search of positive_array's byte strings exactly when it is a root."""
    pos = rs.positive_array
    sorted_rows = pos.view(f"S{rs.rank}").ravel()
    found = [np.zeros((2, 0), dtype=np.intp)]
    step = max(1, _BLOCK_PAIRS // len(pos))
    for b in range(0, len(rows), step):
        block = rows[b:b + step]
        lo = block[0] if upper else 0
        sums = (pos[block, None] + pos[None, lo:]).view(sorted_rows.dtype).ravel()
        at = np.minimum(np.searchsorted(sorted_rows, sums), len(pos) - 1)
        hit = np.flatnonzero(sorted_rows[at] == sums)
        i, j = np.divmod(hit, len(pos) - lo)
        found.append(np.stack([block[i], lo + j]))
    return tuple(np.concatenate(found, axis=1))


#: The one per-type cache: the root system of each (kind, rank), built once.
build_root_system = lru_cache(maxsize=None)(RootSystem)


def as_integers(values, refusal: str) -> tuple[int, ...]:
    """values as ints.  The k-th, x, must be an int or a real number of integral
    value and no bool, or ValueError(refusal.format(k=k, x=x, values=values))."""
    values = tuple(values)
    for k, x in enumerate(values, start=1):
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Real) or x % 1):
            raise ValueError(refusal.format(k=k, x=x, values=values))
    return tuple(map(int, values))


def is_root(rs: RootSystem, v) -> bool:
    """Whether the integer vector v (as_integers' rule) is a root of rs."""
    v = tuple(v)
    if len(v) != rs.rank:
        raise ValueError(f"expected a vector of length {rs.rank}, got {len(v)}")
    return rs.contains(as_integers(v, "coordinate {k} of {values} is {x!r}, not an integer"))


def parse_type(name: str) -> tuple[str, int]:
    """Parse a type string like 'E7' or 'D5' into (kind, rank)."""
    name = name.strip()
    if len(name) < 2 or name[0].upper() not in _VALID_RANKS or not name[1:].isdigit():
        raise InvalidTypeError(f"cannot parse type string {name!r}")
    kind, rank = name[0].upper(), int(name[1:])
    if rank not in _VALID_RANKS[kind]:
        raise InvalidTypeError(f"invalid simple type {kind}{rank}")
    return kind, rank
