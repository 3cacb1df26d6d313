import time

import numpy as np
import pytest

from parabolics import rootsys
from parabolics.grading import diagram
from parabolics.rootsys import (
    POSITIVE_ROOT_COUNTS,
    ROOT_COUNT_TYPES,
    InvalidTypeError,
    RootSystem,
    build_root_system,
    cartan_matrix,
    dynkin_edges,
    is_root,
    parse_type,
)

@pytest.mark.parametrize("kind,rank", ROOT_COUNT_TYPES)
def test_positive_root_counts(kind, rank):
    rs = build_root_system(kind, rank)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[kind](rank)
    assert len(rs.roots) == 2 * len(rs.positive_roots)


@pytest.mark.parametrize("kind,rank", ROOT_COUNT_TYPES)
def test_negation_closure_and_uniqueness(kind, rank):
    rs = build_root_system(kind, rank)
    roots = set(rs.roots)
    assert len(roots) == len(rs.roots)
    for r in roots:
        assert tuple(-x for x in r) in roots


@pytest.mark.parametrize("kind,rank", [("A", 4), ("D", 5), ("E", 7), ("G", 2)])
def test_generation_is_complete(kind, rank):
    # every non-simple positive root decreases to a root by some simple root
    rs = build_root_system(kind, rank)
    roots = set(rs.roots)
    for r in rs.positive_roots:
        if sum(r) == 1:
            continue
        assert any(
            tuple(r[j] - (j == i) for j in range(rank)) in roots for i in range(rank)
        ), r


# ------------------------------------------------- independent coordinate models


def _coordinate_model(kind, rank):
    """Positive roots and simple roots in an ambient coordinate space."""
    if kind == "A":
        e = np.eye(rank + 1)
        pos = [e[i] - e[j] for i in range(rank + 1) for j in range(i + 1, rank + 1)]
        simple = [e[i] - e[i + 1] for i in range(rank)]
    elif kind == "B":
        e = np.eye(rank)
        pos = [e[i] for i in range(rank)]
        pos += [e[i] - e[j] for i in range(rank) for j in range(i + 1, rank)]
        pos += [e[i] + e[j] for i in range(rank) for j in range(i + 1, rank)]
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [e[rank - 1]]
    elif kind == "C":
        e = np.eye(rank)
        pos = [2 * e[i] for i in range(rank)]
        pos += [e[i] - e[j] for i in range(rank) for j in range(i + 1, rank)]
        pos += [e[i] + e[j] for i in range(rank) for j in range(i + 1, rank)]
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [2 * e[rank - 1]]
    elif kind == "D":
        e = np.eye(rank)
        pos = [e[i] - e[j] for i in range(rank) for j in range(i + 1, rank)]
        pos += [e[i] + e[j] for i in range(rank) for j in range(i + 1, rank)]
        simple = [e[i] - e[i + 1] for i in range(rank - 1)] + [e[rank - 2] + e[rank - 1]]
    else:
        raise ValueError(kind)
    return pos, simple


@pytest.mark.parametrize("kind,rank", [("A", 3), ("A", 4), ("B", 3), ("B", 4),
                                       ("C", 3), ("C", 4), ("D", 4), ("D", 5)])
def test_against_coordinate_model(kind, rank):
    pos, simple = _coordinate_model(kind, rank)
    S = np.array(simple).T
    got = set()
    for r in pos:
        coeffs = np.linalg.lstsq(S, r, rcond=None)[0]
        rounded = np.round(coeffs).astype(int)
        assert np.allclose(S @ rounded, r), (kind, rank, r)
        got.add(tuple(int(x) for x in rounded))
    rs = build_root_system(kind, rank)
    assert got == set(rs.positive_roots)


def test_g2_positive_roots_explicit():
    rs = build_root_system("G", 2)
    assert set(rs.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)
    }


# --------------------------------------------------------- string property


def _symmetrizer(kind, rank):
    # d_i with d_i C[i][j] = d_j C[j][i]
    C = cartan_matrix(kind, rank)
    d = np.ones(rank)
    changed = True
    while changed:
        changed = False
        for i in range(rank):
            for j in range(rank):
                if C[i][j] and not np.isclose(d[i] * C[i][j], d[j] * C[j][i]):
                    d[j] = d[i] * C[i][j] / C[j][i]
                    changed = True
    return d


def _pairing_matrix(kind, rank):
    C = cartan_matrix(kind, rank)
    d = _symmetrizer(kind, rank)
    # (alpha_i, alpha_j) = C[i][j] * d_i; <v, beta-check> = 2 (v, beta)/(beta, beta)
    return C * d[:, None]


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 4), ("C", 3), ("D", 4),
                                       ("F", 4), ("G", 2)])
def test_string_property_exhaustive(kind, rank):
    rs = build_root_system(kind, rank)
    B = _pairing_matrix(kind, rank)
    roots = set(rs.roots)
    for a in rs.roots:
        av = np.array(a)
        for b in rs.roots:
            if b == a or b == tuple(-x for x in a):
                continue
            bv = np.array(b)
            pairing = 2 * (av @ B @ bv) / (bv @ B @ bv)
            p = 0
            while tuple(av - (p + 1) * bv) in roots:
                p += 1
            assert (tuple(av + bv) in roots) == (p - pairing > 0), (a, b)


def test_string_property_all_pairs_e8():
    # Every ordered pair (a, b) of E8 roots with b != +-a, 57,120 of them:
    # a + b is a root iff p - <a, b^vee> > 0, p the length of the b-string
    # down from a.  Roots are keyed by their coefficients in base 13 (each
    # lies in -6..6), so membership is one searchsorted per probe.
    rs = build_root_system("E", 8)
    B = _pairing_matrix("E", 8)
    roots = np.array(rs.roots, dtype=np.int64)
    assert np.abs(roots).max() == 6
    place = 13 ** np.arange(8, dtype=np.int64)
    keys = np.sort((roots + 6) @ place)

    def in_roots(v):
        k = (v + 6) @ place
        at = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        return (np.abs(v) <= 6).all(axis=1) & (keys[at] == k)

    a, b = np.repeat(roots, len(roots), axis=0), np.tile(roots, (len(roots), 1))
    keep = (a != b).any(axis=1) & (a != -b).any(axis=1)
    a, b = a[keep], b[keep]
    assert len(a) == 57_120
    pairing = 2 * np.einsum("ij,jk,ik->i", a, B, b) / np.einsum("ij,jk,ik->i", b, B, b)
    p, alive = np.zeros(len(a), dtype=np.int64), np.ones(len(a), dtype=bool)
    while alive.any():
        alive &= in_roots(a - (p + 1)[:, None] * b)
        p += alive
    assert np.array_equal(in_roots(a + b), p - pairing > 0)


# ------------------------------------------------------------- is_root api


def test_is_root_examples():
    a2 = build_root_system("A", 2)
    assert is_root(a2, (1, 1))
    assert not is_root(a2, (2, 0))
    g2 = build_root_system("G", 2)
    assert is_root(g2, (3, 1))
    with pytest.raises(ValueError):
        is_root(a2, (1, 0, 0))


def test_is_root_rejects_non_integral_coordinates():
    a2 = build_root_system("A", 2)
    assert is_root(a2, (1.0, 1)) and is_root(a2, np.array([0, -1]))
    for v, bad in [((1.5, 0), "coordinate 1"), ((0.9, 1.2), "coordinate 1"),
                   ((1, 1.2), "coordinate 2"), ((1, float("nan")), "coordinate 2"),
                   ((float("inf"), 0), "coordinate 1"), (("1", "0"), "coordinate 1"),
                   ((True, False), "coordinate 1"), ((1, np.True_), "coordinate 2"),
                   ((1j, 0), "coordinate 1"), ((0, 1 + 0j), "coordinate 2"),
                   ((1, b"0"), "coordinate 2")]:
        with pytest.raises(ValueError, match=bad):
            is_root(a2, v)


def test_positive_roots_sorted_by_height_then_lex():
    # The positive roots were once in height-then-lex order. They are now in
    # lexicographic order, the rows of positive_array; only the highest root,
    # alone of greatest height, keeps its height-order place, last.
    rs = build_root_system("D", 5)
    roots = list(rs.positive_roots)
    assert roots == sorted(roots) and len(set(roots)) == len(roots) == 20
    assert roots == [tuple(r) for r in rs.positive_array.tolist()]
    heights = [sum(r) for r in roots]
    assert heights[-1] == 7 and heights.count(7) == 1 and max(heights) == 7


def test_invalid_types_rejected():
    for bad in [("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("H", 3)]:
        with pytest.raises(InvalidTypeError):
            build_root_system(*bad)
    with pytest.raises(InvalidTypeError):
        parse_type("E9")
    with pytest.raises(InvalidTypeError):
        parse_type("X2")
    assert parse_type("e7") == ("E", 7)


@pytest.mark.parametrize("name", ["A\u00b2", "A\u0663", "E\u0667", "D1\u00b2", "B\uff12"])
def test_parse_type_accepts_ascii_digits_only(name):
    # str.isdigit() holds for superscripts and other scripts' digits, which
    # int() refuses (A²) or reads (A٣ as A3); both are refused by name.
    with pytest.raises(InvalidTypeError) as exc:
        parse_type(name)
    assert str(exc.value) == f"cannot parse type string {name!r}"


def test_dynkin_edges_refuses_an_unknown_kind():
    with pytest.raises(InvalidTypeError) as exc:
        dynkin_edges("X", 3)
    assert str(exc.value) == "unknown kind 'X'"


def test_root_sum_table_matches_membership():
    rs = build_root_system("F", 4)
    table = rs.root_sum_is_root
    pos = rs.positive_roots
    for i in range(len(pos)):
        for j in range(len(pos)):
            s = tuple(x + y for x, y in zip(pos[i], pos[j]))
            assert table[i, j] == rs.contains(s)


# ------------------------------------------- root-sum table: exactness oracle


def _sum_table_loop(rs):
    """Reference: test every pair of positive roots by set membership."""
    pos = np.array(rs.positive_roots, dtype=np.int64)
    index = {r: k for k, r in enumerate(rs.positive_roots)}
    n = len(pos)
    table = np.zeros((n, n), dtype=bool)
    for i in range(n):
        sums = (pos[i] + pos).tolist()
        for j in range(n):
            if tuple(sums[j]) in index:
                table[i, j] = True
    return table


ORACLE_TYPES = (
    [("A", r) for r in range(1, 13)]
    + [("B", r) for r in range(2, 11)]
    + [("C", r) for r in range(2, 11)]
    + [("D", r) for r in range(3, 15)]
    + [("E", r) for r in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
    + [("A", 30), ("B", 20), ("C", 20), ("D", 30)]
)


@pytest.mark.parametrize("kind,rank", ORACLE_TYPES)
def test_root_sum_table_equals_loop_oracle(kind, rank):
    rs = build_root_system(kind, rank)
    assert np.array_equal(rs.root_sum_is_root, _sum_table_loop(rs))


# ------------------------------------------- root-sum table: root lengths

TYPES_TO_RANK_30 = [(kind, rank) for kind, ranks in rootsys._VALID_RANKS.items()
                    for rank in ranks if rank <= 30]


def _half_lengths(rs):
    """half[s] = |alpha_s|^2 / 2, whole numbers with half[0] = 2: (alpha_a,
    alpha_b) = half[a] C[a, b] is symmetric, which fixes half[b] along each
    edge of the Dynkin diagram."""
    c, half = rs.cartan.tolist(), [2] * rs.rank
    for a, b in dynkin_edges(rs.kind, rs.rank):
        half[b - 1] = half[a - 1] * c[a - 1][b - 1] // c[b - 1][a - 1]
    return half


@pytest.mark.parametrize("kind,rank", TYPES_TO_RANK_30 + [("A", 99)])
def test_half_lengths_symmetrise_the_cartan_matrix(kind, rank):
    rs = build_root_system(kind, rank)
    half = _half_lengths(rs)
    form = np.diag(half) @ rs.cartan
    assert np.array_equal(form, form.T)
    pos = rs.positive_array
    assert set(((pos @ form) * pos).sum(axis=1).tolist()) <= {2 * h for h in half}


def _length_candidates(rs):
    """Pairs (i, j) whose sum has a root's squared length."""
    half = _half_lengths(rs)
    pos = rs.positive_array
    gram = pos @ np.diag(half) @ rs.cartan @ pos.T
    norms = np.diag(gram)
    return np.isin(norms[:, None] + norms[None, :] + 2 * gram, [2 * h for h in half])


@pytest.mark.parametrize("kind,rank", TYPES_TO_RANK_30)
def test_length_filter_is_exact_outside_c4_and_up(kind, rank):
    # A root sum has a root's squared length (Humphreys, Lie Algebras, 9.4);
    # outside C_n, n >= 4, every pair whose sum has that length sums to a
    # root.  C_n has e1+e2 and e3+e4 from rank 4 on.
    rs = build_root_system(kind, rank)
    candidates, table = _length_candidates(rs), rs.root_sum_is_root
    assert not (table & ~candidates).any()
    assert np.array_equal(candidates, table) == (kind != "C" or rank < 4)


@pytest.mark.parametrize("rank", [4, 6, 10])
def test_c_n_sums_of_root_length_that_are_not_roots(rank):
    # In e-coordinates (alpha_s = e_s - e_(s+1), alpha_n = 2 e_n) roots have
    # squared length 2 or 4.  Some pairs, such as e1+e2 and e3+e4, sum to one
    # of these lengths without summing to a root; the table marks them False.
    rs = build_root_system("C", rank)
    to_e = np.eye(rank, dtype=np.int64) - np.eye(rank, k=1, dtype=np.int64)
    to_e[-1, -1] = 2
    vec = rs.positive_array @ to_e
    roots = {tuple(v) for v in vec.tolist() + (-vec).tolist()}
    sums = vec[:, None, :] + vec[None, :, :]
    lengths = (sums ** 2).sum(axis=2)
    pairs = [(i, j) for i, j in zip(*np.nonzero((lengths == 2) | (lengths == 4)))
             if tuple(sums[i, j].tolist()) not in roots]
    e1234 = tuple([1] * 4 + [0] * (rank - 4))
    assert any(tuple(sums[i, j].tolist()) == e1234 for i, j in pairs)
    table = rs.root_sum_is_root
    assert not any(table[i, j] for i, j in pairs)


def test_root_sum_table_d60_budget():
    # 0.35-0.42 s, median 0.36 s of 9 fresh runs, on a 2-core AMD EPYC host:
    # every block searches all columns, as lexicographic order bounds no height
    rs = RootSystem("D", 60)  # uncached: its table is built by the first read
    start = time.perf_counter()
    table = rs.root_sum_is_root
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"D60 root-sum table took {elapsed:.2f} s"
    assert int(table.sum()) == 2 * sum(sum(r) - 1 for r in rs.positive_roots)


def test_root_sum_table_d40_counts_and_budget():
    # Simply laced: a positive root of height h is the sum of two positive
    # roots in exactly 2(h - 1) ordered ways.
    rs = RootSystem("D", 40)  # uncached: its table is built by the first read
    assert "_sum_table" not in vars(rs)
    start = time.perf_counter()
    table = rs.root_sum_is_root
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"D40 root-sum table took {elapsed:.2f} s"
    assert int(table.sum()) == 2 * sum(sum(r) - 1 for r in rs.positive_roots)
    # held on the system from then on: the same read-only array on every read
    assert vars(rs)["_sum_table"] is table and rs.root_sum_is_root is table
    assert not table.flags.writeable
    assert np.array_equal(table, build_root_system("D", 40).root_sum_is_root)


@pytest.mark.parametrize("kind,rank", ORACLE_TYPES + [("A", 99), ("D", 60)])
def test_lex_order_is_the_lexicographic_order_of_the_rows(kind, rank):
    # the positive roots are uint8 rows, strictly increasing as byte strings
    pos = build_root_system(kind, rank).positive_array
    assert pos.dtype == np.uint8 and not pos.flags.writeable
    rows = pos.view(f"S{rank}").ravel()
    assert (rows[:-1] < rows[1:]).all()
    assert np.array_equal(np.lexsort(pos.T[::-1]), np.arange(len(pos)))


@pytest.mark.parametrize("attr", ["root_sum_is_root", "positive_array"])
def test_cached_root_arrays_are_read_only(attr):
    arr = getattr(build_root_system("E", 6), attr)
    with pytest.raises(ValueError):
        arr[0, 0] = not arr[0, 0]
    assert not arr.flags.writeable


# ------------------------------------- root generation: exactness oracle


def _root_strings_loop(kind, rank):
    """Reference: the positive roots, probing each root string tuple by
    tuple and pairing with one np.dot per (root, simple root)."""
    C = cartan_matrix(kind, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    positive = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for b in frontier:
            bv = np.asarray(b, dtype=np.int64)
            for i in range(rank):
                k = int(np.dot(C[i], bv))
                p = 0
                probe = list(b)
                while True:
                    probe[i] -= 1
                    if tuple(probe) in positive:
                        p += 1
                    else:
                        break
                if p - k > 0:
                    up = list(b)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in positive:
                        positive.add(cand)
                        new.append(cand)
        frontier = new
    return tuple(sorted(positive))


GENERATION_ORACLE_TYPES = (
    [("A", r) for r in range(1, 31)]
    + [("B", r) for r in range(2, 21)]
    + [("C", r) for r in range(2, 21)]
    + [("D", r) for r in range(3, 31)]
    + [("D", 40), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("kind,rank", GENERATION_ORACLE_TYPES)
def test_root_generation_equals_string_probe_oracle(kind, rank):
    rs = build_root_system(kind, rank)
    positive = _root_strings_loop(kind, rank)
    assert rs.positive_roots == positive
    assert rs.roots == positive + tuple(tuple(-x for x in r) for r in positive)
    want = cartan_matrix(kind, rank)
    assert rs.cartan.dtype == want.dtype and rs.cartan.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,rank", GENERATION_ORACLE_TYPES)
def test_raised_by_equals_set_test(kind, rank):
    rs = build_root_system(kind, rank)
    roots = set(rs.roots)
    want = [[tuple(c + (k == i) for k, c in enumerate(r)) in roots for i in range(rank)]
            for r in rs.positive_roots]
    assert rs.raised_by.dtype == bool and rs.raised_by.tolist() == want
    assert not rs.raised_by.flags.writeable


@pytest.mark.parametrize("kind,rank", GENERATION_ORACLE_TYPES)
def test_last_positive_row_is_the_highest_root(kind, rank):
    # It dominates every positive root coefficient by coefficient, and it is
    # the only positive root that no simple root raises.
    rs = build_root_system(kind, rank)
    pos = rs.positive_array
    assert (pos <= pos[-1]).all()
    assert np.flatnonzero(~rs.raised_by.any(axis=1)).tolist() == [len(pos) - 1]


def test_build_root_system_d60_budget():
    start = time.perf_counter()
    rs = RootSystem("D", 60)  # uncached
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"D60 root system took {elapsed:.2f} s"
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS["D"](60)


def test_root_systems_compare_and_hash_by_identity():
    for kind, rank in (("A", 2), ("B", 3), ("E", 8), ("G", 2)):
        rs = build_root_system(kind, rank)
        assert build_root_system(kind, rank) is rs  # the per-type cache
        twin = RootSystem(kind, rank)  # an uncached build: the same arrays, another system
        for attr in ("cartan", "positive_array", "raised_by"):
            mine, its = getattr(rs, attr), getattr(twin, attr)
            assert its is not mine and its.dtype == mine.dtype and its.shape == mine.shape
            assert its.tobytes() == mine.tobytes()
        assert rs != twin and len({rs, twin}) == 2
    # a coloured diagram holds its root system and inherits the semantics
    d = diagram("E7", [1])
    assert d == diagram("E7", [1]) and hash(d) == hash(diagram("E7", [1]))
    assert len({d, diagram("E7", [2])}) == 2
