"""Gradings of a simple Lie algebra induced by a coloured Dynkin diagram.

A colouring splits the vertices into black (Levi simple roots) and white.
Restricting each root to its coefficients at the white vertices partitions
the root set into components indexed by integer weight vectors; the zero
weight collects the Levi roots.  Weights are plain tuples of ints, ordered
by ascending white vertex index.

A grading is computed from `RootSystem.positive_array`, the positive
roots' uint8 rows in lexicographic order: each root's key is its white
columns read as one byte string, whose order is the lexicographic order of
its weight, and the Levi's is the empty string.  One stable sort of the keys
groups the rows by weight, ascending (so lexicographic) within each.  The
weight index that every query looks up is built with the grading.  `roots_of`
slices one list per grading, the system's own `positive_roots` tuples in that
order, built on first use, and `components` is the dict of its slices.
Reducedness is one binary search of the doubled weights among the weights;
irreducibility needs only the component of each row.

A component is irreducible when exactly one of its roots is raised by no
positive Levi root.  Levi root vectors are brackets of black simple ones, so
this reads `RootSystem.raised_by`, never the N x N root-sum table.  The
bracket of two components is decided from the highest roots of the first
alone, by a search of their root sums among the roots (`root_sum_pairs`).
"""

from __future__ import annotations

import numpy as np

from .frozen import Frozen, cached_property, read_only
from .rootsys import Root, RootSystem, as_integers, build_root_system, parse_type, root_sum_pairs

Weight = tuple[int, ...]

NOT_A_VERTEX = "black vertex {x!r} is not an integer"
NO_WHITE_VERTEX = "no white vertex: the parabolic subgroup must be proper"


def out_of_range(rs: RootSystem, black) -> str:
    """The refusal of the vertices of black outside 1..rank."""
    bad = sorted({v for v in black if not 1 <= v <= rs.rank})
    return f"black vertices {bad} out of range 1..{rs.rank} for {rs.name}"


class ColouredDiagram(Frozen):
    """The Dynkin diagram of rs with the black vertices of a parabolic;
    diagrams are equal when their systems and black sets are."""

    _repr = ("rs", "black")

    def __init__(self, rs: RootSystem, black: frozenset[int]):
        black = frozenset(as_integers(black, NOT_A_VERTEX))
        vertices = set(range(1, rs.rank + 1))
        if not black <= vertices:
            raise ValueError(out_of_range(rs, black))
        if black == vertices:
            raise ValueError(NO_WHITE_VERTEX)
        vars(self).update(rs=rs, black=black)

    def __eq__(self, other):
        if not isinstance(other, ColouredDiagram):
            return NotImplemented
        return self.rs is other.rs and self.black == other.black

    def __hash__(self) -> int:
        return hash((self.rs, self.black))

    @cached_property
    def white(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(1, self.rs.rank + 1)) - self.black))

    def __str__(self) -> str:
        return f"{self.rs.name}/{','.join(map(str, sorted(self.black)))}"


def diagram(type_name: str, black) -> ColouredDiagram:
    """Convenience constructor: diagram('E7', [1, 3, 4, 6, 7])."""
    return ColouredDiagram(build_root_system(*parse_type(type_name)), frozenset(black))


class Grading(Frozen):
    """The weight partition of the roots of diagram.rs.

    components maps every nonzero weight to its roots; zero_component holds
    the Levi roots.  All tuples are sorted for determinism, and built on
    first access.  Two gradings are equal when they have the same diagram
    and the same partition.
    """

    _repr = ("diagram",)

    def __init__(self, diagram: ColouredDiagram, positive_weights: tuple[Weight, ...],
                 _component_of: np.ndarray, _order: np.ndarray, _bounds: tuple[int, ...],
                 _weight_array: np.ndarray):
        # positive_weights: the nonzero weights with all coefficients >= 0,
        # lexicographically sorted.  _component_of: the component of each of
        # rs.positive_roots, 0 for the Levi, k for positive_weights[k - 1].
        # _order: the rows of rs.positive_array by weight, ascending within
        # each weight (read-only); _bounds: where the rows of each positive
        # weight start in it, then their end.  _weight_array: positive_weights
        # as a uint8 array.  _weight_ids: every query's lookup, k of each
        # positive_weights[k - 1].
        vars(self).update(diagram=diagram, positive_weights=positive_weights,
                          _component_of=_component_of, _order=_order, _bounds=_bounds,
                          _weight_array=_weight_array,
                          _weight_ids={w: k for k, w in enumerate(positive_weights, start=1)})

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return (self.diagram == other.diagram and self.positive_weights == other.positive_weights
                and np.array_equal(self._component_of, other._component_of))

    def __hash__(self) -> int:
        return hash((self.diagram, self.positive_weights))

    @cached_property
    def components(self) -> dict[Weight, tuple[Root, ...]]:
        # Every weight with a negative coefficient sorts before every positive one.
        negative = [tuple(-c for c in w) for w in reversed(self.positive_weights)]
        return {w: self.roots_of(w) for w in negative + list(self.positive_weights)}

    @cached_property
    def zero_component(self) -> tuple[Root, ...]:
        roots, n = self.rs.roots, len(self._order)
        levi = self._order[:self._bounds[0]].tolist()
        return tuple([roots[n + i] for i in reversed(levi)] + [roots[i] for i in levi])

    @property
    def component_sizes(self) -> list[int]:
        """Number of roots of each positive weight, in positive_weights order."""
        return np.diff(self._bounds).tolist()

    @property
    def levi_size(self) -> int:
        """len(zero_component), without building it."""
        return 2 * self._bounds[0]

    @property
    def rs(self) -> RootSystem:
        return self.diagram.rs

    @cached_property
    def _raisable(self) -> np.ndarray:
        """Whether some positive Levi root added to each positive root beta
        gives a root.  ad(e_gamma) for a positive Levi root gamma lies in the
        Lie algebra generated by the ad(e_alpha_b) of the black simple roots,
        so this holds iff beta + alpha_b is a root for some black b."""
        black = np.zeros(self.rs.rank, dtype=bool)
        black[[b - 1 for b in self.diagram.black]] = True
        return self.rs.raised_by @ black  # or-of-ands, row by row

    @cached_property
    def _highest_counts(self) -> list[int]:
        """Number of roots in each component that no positive Levi root raises."""
        return np.bincount(self._component_of[~self._raisable],
                           minlength=len(self.positive_weights) + 1).tolist()

    def is_positive_weight(self, chi: Weight) -> bool:
        return tuple(chi) in self._weight_ids

    def _refuse(self, chi: Weight, kind: str):
        """Refuse chi as no 'positive' or 'nonzero' weight (the lookup is inline: it is hot)."""
        raise ValueError(f"{tuple(chi)} is not a {kind} weight of {self.diagram}")

    @cached_property
    def _reach(self) -> tuple[frozenset[Weight], ...]:
        """bracket_reach of each component, the Levi's (empty) first.  The Levi
        module g_chi is generated by its highest root vectors e_mu, so its
        bracket with the Levi module g_chi2 is nonzero iff mu + beta is a root
        for some such mu and beta of weight chi2 (no Levi beta: it raises mu)."""
        comp = self._component_of
        i, j = root_sum_pairs(self.rs, np.flatnonzero(~self._raisable & (comp > 0)))
        reach = [set() for _ in range(len(self.positive_weights) + 1)]
        for k, c in set(zip(comp[i].tolist(), comp[j].tolist())):
            reach[k].add(self.positive_weights[c - 1])
        return tuple(map(frozenset, reach))

    def bracket_reach(self, chi: Weight) -> frozenset[Weight]:
        """The positive weights chi2 such that some root of chi plus some root
        of chi2 is a root."""
        return self._reach[self._weight_ids.get(tuple(chi)) or self._refuse(chi, "positive")]

    def component_indices(self, chi: Weight) -> np.ndarray | None:
        """Indices into rs.positive_roots of the roots of weight chi, ascending
        and read-only; None when chi is not a positive weight."""
        k, b = self._weight_ids.get(tuple(chi)), self._bounds
        return None if k is None else self._order[b[k - 1]:b[k]]

    @cached_property
    def _ordered_roots(self) -> list[Root]:
        """rs.positive_roots in _order order: roots_of slices it."""
        roots = self.rs.positive_roots
        return [roots[i] for i in self._order.tolist()]

    def roots_of(self, chi: Weight) -> tuple[Root, ...]:
        """The roots of the nonzero weight chi: its rows, negated and reversed if chi < 0."""
        chi, b = tuple(chi), self._bounds
        if k := self._weight_ids.get(chi):
            return tuple(self._ordered_roots[b[k - 1]:b[k]])
        if k := self._weight_ids.get(tuple(-c for c in chi)):
            roots, n = self.rs.roots, len(self._order)  # positive root i negated at n + i
            return tuple([roots[n + i] for i in reversed(self._order[b[k - 1]:b[k]].tolist())])
        self._refuse(chi, "nonzero")

    @cached_property
    def _reduced(self) -> list[bool]:
        """is_reduced of each positive weight: 2*chi (coefficients at most 12,
        still a byte) searched among the weights' byte rows, which are sorted."""
        w = self._weight_array
        key = w.view(f"S{w.shape[1]}").ravel()
        twice = (2 * w).view(key.dtype).ravel()
        return (key[np.minimum(np.searchsorted(key, twice), len(key) - 1)] != twice).tolist()

    def is_reduced(self, chi: Weight) -> bool:
        """A nonzero weight chi (and so -chi) is reduced when 2*chi is not a weight."""
        chi, ids = tuple(chi), self._weight_ids
        k = ids.get(chi) or ids.get(tuple(-c for c in chi)) or self._refuse(chi, "nonzero")
        return self._reduced[k - 1]

    def positive_nonreduced_weights(self) -> tuple[Weight, ...]:
        return tuple(w for w, r in zip(self.positive_weights, self._reduced) if not r)

    def highest_root_of(self, chi: Weight) -> tuple[Root, ...]:
        """Roots of the component that no positive Levi root raises further."""
        if (idx := self.component_indices(chi)) is None:
            self._refuse(chi, "positive")
        return tuple(map(tuple, self.rs.positive_array[idx[~self._raisable[idx]]].tolist()))

    def is_irreducible_component(self, chi: Weight) -> bool:
        """True iff the component has a unique highest root under the Levi."""
        k = self._weight_ids.get(tuple(chi)) or self._refuse(chi, "positive")
        return self._highest_counts[k] == 1


def compute_grading(diag: ColouredDiagram) -> Grading:
    # contiguous, unlike positive_array[:, white]
    cols = diag.rs.positive_array.take([w - 1 for w in diag.white], axis=1)
    key = cols.view(f"S{cols.shape[1]}").ravel()
    # A stable sort keeps each component in the lexicographic root order.
    order = key.argsort(kind="stable")
    read_only(order)  # component_indices hands out its slices
    padded = np.zeros(len(key) + 1, dtype=key.dtype)  # b"", then the keys in order
    key = key.take(order, out=padded[1:])
    new = key != padded[:-1]  # a positive weight's first root
    starts = new.nonzero()[0]  # never empty: each white simple root is one
    component_of = np.empty(len(key), dtype=np.intp)
    component_of[order] = new.cumsum()
    weights = key[starts].view(np.uint8).reshape(len(starts), cols.shape[1])
    return Grading(diagram=diag, positive_weights=tuple(map(tuple, weights.tolist())),
                   _component_of=component_of, _order=order,
                   _bounds=(*starts.tolist(), len(order)), _weight_array=weights)


def grade(type_name: str, black) -> Grading:
    return compute_grading(diagram(type_name, black))
