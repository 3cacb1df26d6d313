import os
import re
import subprocess
import sys
from itertools import combinations, pairwise
from pathlib import Path

import numpy as np
import pytest

import parabolics
from linalg_helpers import sum_table_reads
from parabolics.classify import nonreduced_counts
from parabolics.cli import parse_diagram
from parabolics.grading import Grading, compute_grading, diagram, grade
from parabolics.rootsys import build_root_system


def test_a3_middle_white_single_positive_weight():
    g = grade("A3", black=[1, 3])
    assert g.positive_weights == ((1,),)
    assert set(g.roots_of((1,))) == {
        (0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1)
    }


@pytest.mark.parametrize("name,black", [
    ("A3", [2]), ("B3", [1]), ("C4", [2, 3]), ("D5", [1, 4]),
    ("E6", []), ("E7", [1, 3, 4, 6, 7]), ("F4", [2]), ("G2", [1]),
])
def test_partition_and_negation(name, black):
    g = grade(name, black)
    total = sum(len(r) for r in g.components.values()) + len(g.zero_component)
    assert total == len(g.rs.roots)
    for chi, roots in g.components.items():
        neg = tuple(-c for c in chi)
        assert set(g.components[neg]) == {tuple(-x for x in r) for r in roots}
        white = [w - 1 for w in g.diagram.white]
        for r in roots:
            assert tuple(r[i] for i in white) == chi


def test_positive_weights_are_nonnegative_restrictions():
    g = grade("E7", [1, 3, 4, 6, 7])
    for w in g.positive_weights:
        assert min(w) >= 0 and any(w)


@pytest.mark.parametrize("name,black", [("A4", [2, 4]), ("D4", [3]), ("B3", [])])
def test_bracket_grading_exhaustive(name, black):
    g = grade(name, black)
    weight_of = {}
    for chi, roots in g.components.items():
        for r in roots:
            weight_of[r] = chi
    for r in g.zero_component:
        weight_of[r] = tuple(0 for _ in g.diagram.white)
    roots = set(g.rs.roots)
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in roots:
                want = tuple(x + y for x, y in zip(weight_of[a], weight_of[b]))
                assert weight_of[s] == want


def test_bracket_grading_sampled_e8():
    g = grade("E8", [1, 2, 5, 7])
    weight_of = {}
    for chi, roots in g.components.items():
        for r in roots:
            weight_of[r] = chi
    zero = tuple(0 for _ in g.diagram.white)
    for r in g.zero_component:
        weight_of[r] = zero
    roots = list(g.rs.roots)
    rootset = set(roots)
    rng = np.random.default_rng(1)
    for _ in range(20_000):
        a = roots[rng.integers(len(roots))]
        b = roots[rng.integers(len(roots))]
        s = tuple(x + y for x, y in zip(a, b))
        if s in rootset:
            want = tuple(x + y for x, y in zip(weight_of[a], weight_of[b]))
            assert weight_of[s] == want


def test_is_reduced_case_2a_colouring():
    g = grade("E7", [1, 3, 4, 6, 7])
    assert not g.is_reduced((0, 1))
    assert not g.is_reduced((1, 1))
    assert g.is_reduced((1, 0))
    assert g.is_reduced((2, 1))
    # the lexicographically-last (highest-coefficient) weight is always reduced
    top = max(g.positive_weights, key=sum)
    assert g.is_reduced(top)
    with pytest.raises(ValueError):
        g.is_reduced((9, 9))


def test_non_weights_are_refused_by_name():
    g = grade("E7", [1, 3, 4, 6, 7])
    for chi in ((9, 9), (0, 0), (0, 2, 1)):
        message = re.escape(f"{chi} is not a nonzero weight of E7/1,3,4,6,7")
        with pytest.raises(ValueError, match=message):
            g.roots_of(chi)
        with pytest.raises(ValueError, match=message):
            g.is_reduced(chi)


def test_positive_nonreduced_examples():
    g = grade("E7", [1, 3, 4, 6, 7])
    assert g.positive_nonreduced_weights() == ((0, 1), (1, 1))
    borel_a2 = grade("A2", [])
    assert borel_a2.positive_nonreduced_weights() == ()


def test_irreducibility_single_root_and_borel():
    borel = grade("A3", [])
    for w in borel.positive_weights:
        assert len(borel.roots_of(w)) == 1
        assert borel.is_irreducible_component(w)


def test_irreducibility_all_components_of_sample_parabolics():
    for name, black in [("E7", [1, 3, 4, 6, 7]), ("E8", [1, 2, 3, 5, 6, 7]),
                        ("D5", [2, 3]), ("F4", [1, 4])]:
        g = grade(name, black)
        for w in g.positive_weights:
            assert g.is_irreducible_component(w), (name, black, w)


def test_diagram_validation():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        diagram("A3", [1, 2, 3])  # no white vertex
    with pytest.raises(ValueError):
        diagram("A3", [0])
    with pytest.raises(ValueError):
        diagram("A3", [4])


def test_an_out_of_range_vertex_has_one_refusal():
    said = re.escape("black vertices [8] out of range 1..7 for E7")
    with pytest.raises(ValueError, match=f"^{said}$"):
        diagram("E7", [1, 8])
    with pytest.raises(ValueError, match=f"^{said}$"):
        parse_diagram("E7/1,8")
    with pytest.raises(ValueError, match=rf"^colouring \(1, 8\): {said}$"):
        nonreduced_counts(build_root_system("E", 7), [(1, 3), (1, 8.0), (9,)])


NOT_INTEGERS = [True, False, 1.5, "1", 1 + 0j, None, np.bool_(True)]


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_diagram_refuses_a_vertex_that_is_not_an_integer(bad):
    # is_root's coordinate rule: True would pass for vertex 1 and 1.5 would not
    # be a vertex at all.
    with pytest.raises(ValueError, match=re.escape(f"black vertex {bad!r} is not an integer")):
        diagram("E7", [bad, 3, 4, 6, 7])


def test_diagram_vertices_of_integral_value_are_ints():
    for one in (1.0, np.int64(1), np.float64(1.0)):
        d = diagram("E7", [one, 3, 4, 6, 7])
        assert str(d) == "E7/1,3,4,6,7" and d == diagram("E7", [1, 3, 4, 6, 7])
        assert all(type(v) is int for v in d.black)


def test_grading_components_sorted_deterministically():
    g1 = grade("E7", [2, 4, 5])
    g2 = grade("E7", [2, 4, 5])
    assert list(g1.components) == list(g2.components)
    assert g1.positive_weights == g2.positive_weights


@pytest.mark.parametrize("name, black", [("E7", [2, 4, 5]), ("D6", [1, 3, 6]),
                                         ("C4", []), ("A70", [5, 40]), ("G2", [2])])
def test_component_roots_are_the_root_systems_own_tuples(name, black):
    g = grade(name, black)
    own = {id(r) for r in g.rs.roots}
    held = [r for comp in g.components.values() for r in comp] + list(g.zero_component)
    assert len(held) == len(g.rs.roots)
    assert all(id(r) in own for r in held)


# ------------------------------------------------ gradings: exactness oracle


def _grading_loop(diag):
    """Reference: weigh every root, positive and negative, one at a time."""
    white = [w - 1 for w in diag.white]
    components, zero = {}, []
    for r in diag.rs.roots:
        w = tuple(r[i] for i in white)
        if any(w):
            components.setdefault(w, []).append(r)
        else:
            zero.append(r)
    return ({w: tuple(sorted(rr)) for w, rr in sorted(components.items())},
            tuple(sorted(zero)))


def _highest_roots_loop(g, chi):
    """Reference: the component's indices into rs.positive_roots and the roots
    no positive Levi root raises, from one np.ix_ slice of the sum table."""
    rs = g.rs
    index = {r: k for k, r in enumerate(rs.positive_roots)}
    idx = np.array(sorted(index[r] for r in g.components[chi]), dtype=np.intp)
    levi = np.array(sorted(index[r] for r in g.zero_component if sum(r) > 0), dtype=np.intp)
    if len(levi) == 0:
        raisable = np.zeros(len(idx), dtype=bool)
    else:
        raisable = rs.root_sum_is_root[np.ix_(idx, levi)].any(axis=1)
    return idx, tuple(rs.positive_roots[i] for i in idx[~raisable])


def _raisable_levi_rows(g):
    """Reference: a positive root is raisable when some positive Levi root
    added to it gives a root, read from the Levi rows of the full sum table
    (the table is symmetric)."""
    levi = np.flatnonzero(g._component_of == 0)
    return g.rs.root_sum_is_root[levi].any(axis=0)


def _assert_matches_oracles(g):
    assert np.array_equal(g._raisable, _raisable_levi_rows(g))  # Levi roots included
    components, zero = _grading_loop(g.diagram)
    assert list(g.components) == list(components)
    assert g.components == components
    assert g.zero_component == zero
    assert g.positive_weights == tuple(sorted(w for w in components if min(w) >= 0))
    for w in g.positive_weights:
        idx, tops = _highest_roots_loop(g, w)
        assert g.component_indices(w).tolist() == idx.tolist()
        assert not g.component_indices(w).flags.writeable
        assert g.highest_root_of(w) == tops
        assert g.is_irreducible_component(w) is (len(tops) == 1)


def _all_colourings(rank):
    return [black for k in range(rank) for black in combinations(range(1, rank + 1), k)]


def _seeded_colourings(rank, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        black = [v for v in range(1, rank + 1) if rng.random() < 0.5]
        if len(black) < rank:
            out.append(black)
    return out


EVERY_COLOURING = (
    ["E6", "E7", "E8", "F4", "G2"]
    + [f"A{r}" for r in range(1, 7)] + [f"B{r}" for r in range(2, 6)]
    + [f"C{r}" for r in range(2, 6)] + [f"D{r}" for r in range(4, 7)]
)


@pytest.mark.parametrize("name", EVERY_COLOURING)
def test_grading_equals_loop_oracle_every_colouring(name):
    rank = int(name[1:])
    for black in _all_colourings(rank):
        _assert_matches_oracles(grade(name, black))


def _component_slices(g):
    """Reference: every component sliced from two lists of rs.roots, the
    positive rows in weight order and their negatives in reverse."""
    roots, rows, n = g.rs.roots, g._order.tolist(), len(g._order)
    pos = [roots[i] for i in rows]
    neg = [roots[n + i] for i in reversed(rows)]  # negation reverses the order
    spans = list(pairwise(g._bounds))
    negative = [tuple(-c for c in w) for w in g.positive_weights]
    components = dict(zip(negative[::-1], [tuple(neg[n - b:n - a]) for a, b in spans[::-1]]))
    components.update(zip(g.positive_weights, [tuple(pos[a:b]) for a, b in spans]))
    return components


@pytest.mark.parametrize("name", ["E6", "E7", "E8", "F4", "G2", "A99/1,50", "D60/2,30,59"])
def test_roots_of_and_reducedness_equal_their_oracles(name):
    # A99/1,50 and D60/2,30,59 have 97 and 57 white vertices: keys of as many bytes.
    kind, _, black = name.partition("/")
    colourings = ([tuple(map(int, black.split(",")))] if black
                  else _all_colourings(int(kind[1:])))
    for black in colourings:
        g = grade(kind, black)
        want = _component_slices(g)
        for chi, roots in want.items():
            got = g.roots_of(chi)
            assert got == roots and all(a is b for a, b in zip(got, roots)), (name, black, chi)
        assert list(g.components) == list(want) and g.components == want
        weights = set(g.positive_weights)
        reduced = [tuple(2 * c for c in w) not in weights for w in g.positive_weights]
        assert [g.is_reduced(w) for w in g.positive_weights] == reduced
        assert [g.is_reduced(tuple(-c for c in w)) for w in g.positive_weights] == reduced
        assert g.positive_nonreduced_weights() == tuple(
            w for w, r in zip(g.positive_weights, reduced) if not r)


@pytest.mark.parametrize("name", ["A20", "B14", "C14", "D24"])
def test_grading_equals_loop_oracle_seeded(name):
    for black in _seeded_colourings(int(name[1:]), 6, seed=int(name[1:])):
        _assert_matches_oracles(grade(name, black))


def test_irreducibility_builds_no_root_sum_table(monkeypatch):
    reads = sum_table_reads(monkeypatch)
    for name in ("A20", "D24"):
        for black in _seeded_colourings(int(name[1:]), 6, seed=int(name[1:])):
            g = grade(name, black)
            for w in g.positive_weights:
                g.is_irreducible_component(w)
                g.highest_root_of(w)
                g.bracket_reach(w)
    assert reads == []


def test_cold_a99_irreducibility_budget():
    # A fresh interpreter grades A99/1,50 and decides all 4,753 components.
    # Measured on a 2-core 2.1 GHz Xeon: 0.28-0.37 s and 34.2-34.5 MB of peak
    # RSS growth; from the Levi rows of the root-sum table it took 0.72-0.95 s
    # and 61.5 MB.
    script = (
        "import time\n"
        "from parabolics.grading import grade\n"
        "def hwm():\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            return int(line.split()[1]) / 1024\n"
        "base = hwm()\n"
        "start = time.perf_counter()\n"
        "g = grade('A99', [1, 50])\n"
        "irr = [g.is_irreducible_component(w) for w in g.positive_weights]\n"
        "elapsed = time.perf_counter() - start\n"
        "print(len(irr), sum(irr), elapsed, hwm() - base)\n"
    )
    src = str(Path(parabolics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    count, irreducible, elapsed, grown = int(out[0]), int(out[1]), float(out[2]), float(out[3])
    assert count == irreducible == 4753  # type A: every component is irreducible
    assert elapsed < 1.0, f"cold A99/1,50 irreducibility took {elapsed:.2f} s"
    assert grown < 48, f"cold A99/1,50 irreducibility grew peak RSS by {grown:.1f} MB"


def test_grading_keys_of_many_white_vertices():
    # A70 with 63 to 70 white vertices: keys of that many bytes.
    for black in ([], [5, 40], list(range(1, 8, 2))):
        g = grade("A70", black)
        components, zero = _grading_loop(g.diagram)
        assert list(g.components) == list(components)
        assert g.components == components and g.zero_component == zero
    for w in g.positive_weights[:3] + g.positive_weights[-3:]:
        idx, tops = _highest_roots_loop(g, w)
        assert g.component_indices(w).tolist() == idx.tolist()
        assert g.highest_root_of(w) == tops


def test_component_indices_of_non_positive_weights():
    g = grade("E7", [1, 3, 4, 6, 7])
    assert g.component_indices((0, -1)) is None
    assert g.component_indices((9, 9)) is None
    assert g.component_indices((0, 0)) is None
    with pytest.raises(ValueError):
        g.highest_root_of((0, -1))
    with pytest.raises(ValueError):
        g.is_irreducible_component((0, 0))


def test_borel_grading_has_empty_levi():
    g = grade("E6", [])
    assert g.zero_component == ()
    assert len(g.positive_weights) == 36
    assert all(g.is_irreducible_component(w) for w in g.positive_weights)


def test_grading_equality_is_diagram_and_partition():
    g = grade("E7", [1, 3, 4, 6, 7])
    again = grade("E7", [1, 3, 4, 6, 7])
    assert g == again and hash(g) == hash(again)
    assert g != grade("E7", [1, 3, 4, 6]) and g != grade("E6", [1, 3, 4, 6])
    moved = g._component_of.copy()
    moved[[0, -1]] = moved[[-1, 0]]
    assert moved.tolist() != g._component_of.tolist()
    fields = (g._order, g._bounds, g._weight_array)
    assert g != Grading(g.diagram, g.positive_weights, moved, *fields)
    assert g != Grading(g.diagram, g.positive_weights[::-1], g._component_of, *fields)


def test_diagrams_and_gradings_leave_other_types_to_the_other_operand():
    g = grade("E7", [1, 3, 4, 6, 7])
    for obj in (g, g.diagram):
        assert obj.__eq__((1, 3, 4, 6, 7)) is NotImplemented
        assert obj != "E7/1,3,4,6,7" and obj != g.positive_weights
