import re
import time

import numpy as np
import pytest

from linalg_helpers import spinor_vector
from parabolics import spinor
from parabolics.cxlinalg import crandom, restriction_invariants
from parabolics.spinor import SpinModule, spin_module


def _form(sm, s, t):
    return complex(s @ sm.form_gram @ t)


def _from_plus(sm, x):
    """The spinor with half coordinates x on S+ and 0 on S-."""
    v = np.zeros(sm.dim, dtype=complex)
    v[sm.even_indices] = x
    return v


def _rho_span(sm, s):
    """Columns rho(v_j) s over the standard basis of V."""
    return np.column_stack([sm.rho(e) @ s for e in np.eye(2 * sm.m, dtype=complex)])


@pytest.fixture(scope="module")
def sm4():
    return spin_module(4)


def test_dimensions(sm4):
    assert sm4.dim == 16
    assert len(sm4.even_indices) == len(sm4.odd_indices) == 8
    sm3 = spin_module(3)
    assert len(sm3.even_indices) == len(sm3.odd_indices) == 4


def test_rho_wedge_and_contraction_examples(sm4):
    def vec(s):
        return spinor_vector(sm4, s)
    e1 = np.zeros(8); e1[0] = 1
    assert np.allclose(sm4.rho(e1) @ vec(()), vec((0,)))
    e1dual = np.zeros(8); e1dual[4] = 1
    assert np.allclose(sm4.rho(e1dual) @ vec((0, 1)), vec((1,)))
    # contraction at the second slot picks up a sign
    e2dual = np.zeros(8); e2dual[5] = 1
    assert np.allclose(sm4.rho(e2dual) @ vec((0, 1)), -vec((0,)))


def test_rho_linear_in_v(sm4):
    rng = np.random.default_rng(0)
    v, w = crandom(rng, 8), crandom(rng, 8)
    a, b = rng.standard_normal(2)
    assert np.allclose(sm4.rho(a * v + b * w), a * sm4.rho(v) + b * sm4.rho(w))


def test_rho_shape_mismatch(sm4):
    for bad in (np.zeros(7), np.zeros((3, 7)), np.zeros(())):
        with pytest.raises(ValueError):
            sm4.rho(bad)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_clifford_relation(m):
    sm = spin_module(m)
    rng = np.random.default_rng(m)
    I = np.eye(sm.dim)
    for _ in range(50):
        v, w = crandom(rng, 2 * m), crandom(rng, 2 * m)
        Rv, Rw = sm.rho(v), sm.rho(w)
        assert np.linalg.norm(Rv @ Rv - sm.pairing(v, v) * I) < 1e-10 * sm.dim
        assert np.linalg.norm(Rv @ Rw + Rw @ Rv - 2 * sm.pairing(v, w) * I) < 1e-10 * sm.dim


def test_rho_flips_parity_exactly(sm4):
    rng = np.random.default_rng(1)
    ev, od = list(sm4.even_indices), list(sm4.odd_indices)
    for _ in range(10):
        R = sm4.rho(crandom(rng, 8))
        assert not R[np.ix_(ev, ev)].any()
        assert not R[np.ix_(od, od)].any()


def test_spin_form_examples(sm4):
    assert _form(sm4, spinor_vector(sm4, ()), spinor_vector(sm4, (0, 1, 2, 3))) == 1
    assert _form(sm4, spinor_vector(sm4, (0, 1)), spinor_vector(sm4, (0, 1))) == 0


def test_form_symmetry_types():
    G4 = spin_module(4).half_space("+").gram
    assert np.array_equal(G4, G4.T)
    G4m = spin_module(4).half_space("-").gram
    assert np.array_equal(G4m, G4m.T)
    G2 = spin_module(2).half_space("+").gram
    assert np.array_equal(G2, -G2.T)
    assert abs(np.linalg.det(G2)) > 1e-12


def test_halves_orthogonal_exactly(sm4):
    G = sm4.form_gram
    ev, od = list(sm4.even_indices), list(sm4.odd_indices)
    assert not G[np.ix_(ev, od)].any()
    assert not G[np.ix_(od, ev)].any()
    assert abs(np.linalg.det(G)) > 1e-9


def test_form_gram_nondegenerate_on_halves(sm4):
    for side in "+-":
        sp = sm4.half_space(side)
        assert abs(np.linalg.det(sp.gram)) > 1e-9


def test_spinor_ampleness_normal_form(sm4):
    # image spanned by 1 and e1^e2 + e3^e4: degenerate but nonzero restriction
    plus = sm4.half_space("+")
    s1, s2 = (spinor_vector(sm4, *subsets)[sm4.even_indices]
              for subsets in [((),), ((0, 1), (2, 3))])
    assert restriction_invariants(np.column_stack([s1, s2]), plus) == (2, 1)
    assert restriction_invariants(np.zeros((8, 2)), plus) == (0, 0)
    rng = np.random.default_rng(2)
    got_nondeg = 0
    for _ in range(10):
        cols = crandom(rng, 8, 3)
        r, j = restriction_invariants(cols, plus)
        got_nondeg += (r, j) == (3, 0)
    assert got_nondeg == 10  # random 3-dim images are nondegenerate


def test_prop7c_dichotomy(sm4):
    rng = np.random.default_rng(3)
    minus = sm4.half_space("-")
    od = list(sm4.odd_indices)
    for _ in range(20):
        s = _from_plus(sm4, crandom(rng, 8))
        span = _rho_span(sm4, s)[od, :]
        if abs(_form(sm4, s, s)) > 1e-8:
            assert np.linalg.matrix_rank(span, tol=1e-8) == 8
        else:
            assert restriction_invariants(span, minus) == (4, 4)
    # isotropic spinors: solve for a root of the quadratic form
    for _ in range(20):
        a = _from_plus(sm4, crandom(rng, 8))
        b = _from_plus(sm4, crandom(rng, 8))
        qa, qb, qab = _form(sm4, a, a), _form(sm4, b, b), _form(sm4, a, b)
        s = a + ((-qab + np.sqrt(qab ** 2 - qa * qb)) / qb) * b
        assert abs(_form(sm4, s, s)) < 1e-6 * np.linalg.norm(s) ** 2
        span = _rho_span(sm4, s)[od, :]
        assert restriction_invariants(span, minus) == (4, 4)


# ------------------------------------------ exactness oracles and caching


def _gram_loop(sm):
    """Reference: the form on every pair of basis elements, the top
    coefficient of (-1)^[|s|/2] e_s ^ e_t, signed by the inversions of s, t."""
    G = np.zeros((sm.dim, sm.dim), dtype=complex)
    for i, s in enumerate(sm.basis):
        for j, t in enumerate(sm.basis):
            if set(s) & set(t) or len(s) + len(t) != sm.m:
                continue
            inversions = sum(1 for x in s for y in t if x > y) + len(s) // 2
            G[i, j] = -1 if inversions % 2 else 1
    return G


def _rho_loop(sm, v):
    """Reference: rho(v) column by column, wedging by e_i and contracting by
    e*_i; both signs are (-1)^(number of elements of s below i)."""
    v = np.asarray(v, dtype=complex)
    index = {s: k for k, s in enumerate(sm.basis)}
    M = np.zeros((sm.dim, sm.dim), dtype=complex)
    for col, s in enumerate(sm.basis):
        for i in range(sm.m):
            sign = -1 if sum(1 for x in s if x < i) % 2 else 1
            if v[i] != 0 and i not in s:
                M[index[tuple(sorted(s + (i,)))], col] += v[i] * sign
            ci = v[sm.m + i]
            if ci != 0 and i in s:
                M[index[tuple(x for x in s if x != i)], col] += ci * sign
    return M


def _rho_table_loop(m):
    """Reference: the rho scatter tables entry by entry, column by column."""
    sm = spin_module(m)
    index = {s: k for k, s in enumerate(sm.basis)}
    flat, gen, sign = [], [], []
    for col, s in enumerate(sm.basis):
        for i in range(m):
            if i in s:  # contract by e*_i
                t, g = tuple(x for x in s if x != i), m + i
            else:  # wedge by e_i
                t, g = tuple(sorted(s + (i,))), i
            flat.append(index[t] * sm.dim + col)
            gen.append(g)
            sign.append(-1 if sum(1 for x in s if x < i) % 2 else 1)
    return np.array(flat), np.array(gen), np.array(sign, dtype=float)


def _gram_complement_loop(m):
    """Reference: the signed permutation Gram, one complement per row."""
    sm = spin_module(m)
    index = {s: k for k, s in enumerate(sm.basis)}
    G = np.zeros((sm.dim, sm.dim), dtype=complex)
    for i, s in enumerate(sm.basis):
        k = len(s)
        sign = -1 if (sum(s) - k * (k - 1) // 2) % 2 else 1
        complement = tuple(x for x in range(m) if x not in s)
        G[i, index[complement]] = -sign if (k // 2) % 2 else sign
    return G


def _same_bytes(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("m", range(1, 11))
def test_bitmask_tables_equal_loop_oracles(m):
    sm = spin_module(m)
    for got, want in zip(sm._rho, _rho_table_loop(m)):
        assert _same_bytes(got, want)
    assert _same_bytes(sm.form_gram, _gram_complement_loop(m))
    parity = np.array([len(s) % 2 for s in sm.basis])
    for got, want in zip((sm.even_indices, sm.odd_indices), (parity == 0, parity == 1)):
        assert _same_bytes(got, np.flatnonzero(want))


def test_rho_scatter_cold_budget():
    start = time.perf_counter()
    sm = SpinModule(11)  # a fresh module builds every table it holds
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"SpinModule(11) took {elapsed * 1e3:.1f} ms"
    flat, gen, sign = sm._rho
    assert len(flat) == len(gen) == len(sign) == 11 * 2 ** 11


@pytest.mark.parametrize("m", range(1, 10))
def test_form_gram_equals_loop_oracle(m):
    sm = spin_module(m)
    assert np.array_equal(sm.form_gram, _gram_loop(sm))


@pytest.mark.parametrize("m", range(1, 8))
def test_rho_equals_loop_oracle(m):
    sm = spin_module(m)
    rng = np.random.default_rng(100 + m)
    stack = []
    for _ in range(5):
        v = crandom(rng, 2 * m)
        v[rng.random(2 * m) < 0.3] = 0
        got, want = sm.rho(v), _rho_loop(sm, v)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included
        assert sm.rho(v.real).tobytes() == _rho_loop(sm, v.real).tobytes()
        stack.append(v)
    # a stack of vectors gives each vector's matrix, bit for bit
    stack = np.array(stack).reshape(5, 1, 2 * m)
    assert sm.rho(stack).tobytes() == np.stack([[sm.rho(v)] for v in stack[:, 0]]).tobytes()


def test_form_gram_cached_read_only_and_fast():
    sm = SpinModule(10)
    start = time.perf_counter()
    G = sm.form_gram  # the first read builds it
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05, f"form_gram at m=10 took {elapsed * 1e3:.1f} ms"
    assert G is sm.form_gram  # built once per module
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1


@pytest.mark.parametrize("m", [0, -1])
def test_spin_module_rejects_m_below_one(m):
    with pytest.raises(ValueError, match=f"m = {m}"):
        spin_module(m)


@pytest.mark.parametrize("m", range(1, 8))
def test_half_indices_and_rho_half_equal_subset_parity(m):
    sm = spin_module(m)
    even = [k for k, s in enumerate(sm.basis) if len(s) % 2 == 0]
    odd = [k for k, s in enumerate(sm.basis) if len(s) % 2 == 1]
    assert sm.even_indices.tolist() == even and sm.odd_indices.tolist() == odd
    assert not sm.even_indices.flags.writeable and not sm.odd_indices.flags.writeable
    # rho(v) lives in its half blocks, from each parity to the other
    R = sm.rho(crandom(np.random.default_rng(200 + m), 2 * m))
    assert not R[np.ix_(even, even)].any() and not R[np.ix_(odd, odd)].any()
    assert np.count_nonzero(R[np.ix_(odd, even)]) + np.count_nonzero(R[np.ix_(even, odd)]) \
        == np.count_nonzero(R) == m * sm.dim


@pytest.mark.parametrize("m", [2, 4, 6])
def test_half_space_cached_per_side_with_read_only_gram(m):
    sm = spin_module(m)
    for side, idx in (("+", sm.even_indices), ("-", sm.odd_indices)):
        sp = sm.half_space(side)
        assert sp is sm.half_space(side)
        assert sp.kind == f"spinor-form({m}){side}" and sp.dim == len(idx)
        assert np.array_equal(sp.gram, sm.form_gram[np.ix_(idx, idx)])
        assert not sp.gram.flags.writeable
        with pytest.raises(ValueError):
            sp.gram[0, 0] = 1
    assert sm.half_space("+") is not sm.half_space("-")
    with pytest.raises(ValueError):
        spin_module(m + 1).half_space("+")


@pytest.mark.parametrize("side", ["x", "", "+-", None])
def test_unknown_spinor_side_rejected(sm4, side):
    with pytest.raises(ValueError, match=re.escape(repr(side))):
        sm4.half_space(side)


def _rho_square_defect_loop(rng, sm, trials):
    """rho(v)^2 - (v, v) Id one dense v at a time, as written before stacks."""
    I = np.eye(sm.dim)
    worst = 0.0
    for _ in range(trials):
        v = crandom(rng, 2 * sm.m)
        R = sm.rho(v)
        worst = max(worst, float(np.linalg.norm(R @ R - sm.pairing(v, v) * I)))
    return worst


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("stack_bytes", [spinor._RHO_STACK_BYTES, 3 * 16 * 4 ** 6])
def test_rho_square_defect_equals_dense_loop(m, stack_bytes, monkeypatch):
    # the small stack size splits m = 6 into stacks of 3 (and a last of 1)
    monkeypatch.setattr(spinor, "_RHO_STACK_BYTES", stack_bytes)
    for seed, trials in ((m, 100), (m + 1, 1)):
        got = spinor.rho_square_defect(np.random.default_rng(seed), spin_module(m), trials)
        assert got == _rho_square_defect_loop(np.random.default_rng(seed), spin_module(m), trials)


def test_rho_square_defect_reports_nan():
    sm = SpinModule(2)
    flat, gen, sign = sm._rho
    vars(sm)["_rho"] = (flat, gen, sign * np.nan)
    assert np.isnan(spinor.rho_square_defect(np.random.default_rng(0), sm, 3))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_form_is_exactly_invariant_under_every_generator(m):
    # rho(e_a)^T G = G rho(e_a) for all 2m generators of V: both sides are
    # signed permutations, so equality is exact
    sm = spin_module(m)
    G = sm.form_gram
    flipped = G.copy()
    flipped[0] *= -1  # one sign of the Gram planted wrong
    for e in np.eye(2 * m, dtype=complex):
        R = sm.rho(e)
        assert np.count_nonzero(G @ R) == np.count_nonzero(R) == sm.dim // 2
        assert np.array_equal(R.T @ G, G @ R)
        assert not np.array_equal(R.T @ flipped, flipped @ R)


def _generators(sm):
    """Each rho(e_a), read from the module's scatter table as a signed partial
    permutation: column c goes to row to[a, c] with sign sgn[a, c].  A zero
    column goes to the extra column n, whose sign is 0."""
    flat, gen, sign = sm._rho
    n = sm.dim
    row, col = np.divmod(flat, n)
    assert len(np.unique(gen * n + col)) == len(flat)  # one entry per column at most
    assert np.isin(sign, (-1.0, 1.0)).all()
    to = np.full((2 * sm.m, n + 1), n)
    sgn = np.zeros((2 * sm.m, n + 1), dtype=np.int64)
    to[gen, col], sgn[gen, col] = row, sign.astype(np.int64)
    return to, sgn


def _clifford_violations(sm, to, sgn):
    """The pairs (a, b), a <= b, where the integer matrix
    rho(e_a) rho(e_b) + rho(e_b) rho(e_a) - 2 (e_a, e_b) Id has a nonzero
    entry: every entry is keyed (pair, row, column) and the keys summed."""
    n, E = sm.dim, np.eye(2 * sm.m)
    a, b = np.triu_indices(2 * sm.m)
    pair, col = np.arange(len(a))[:, None], np.arange(n)
    keys, vals = [], []
    for x, y in ((a, b), (b, a)):  # rho(e_x) rho(e_y), column by column
        mid = to[y][:, :n]
        row = np.take_along_axis(to[x], mid, axis=1)
        val = sgn[y][:, :n] * np.take_along_axis(sgn[x], mid, axis=1)
        keys.append(((pair * n + row) * n + col)[val != 0])
        vals.append(val[val != 0])
    twice = np.array([2 * sm.pairing(E[x], E[y]) for x, y in zip(a, b)])
    assert np.array_equal(twice, np.round(twice.real))
    p = np.flatnonzero(twice)
    keys.append(((p[:, None] * n + col) * n + col).ravel())
    vals.append(np.repeat(-twice[p].real.astype(np.int64), n))
    uniq, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(total, inverse, np.concatenate(vals))
    bad = np.unique(uniq[total != 0] // (n * n))
    return [(int(a[k]), int(b[k])) for k in bad]


@pytest.mark.parametrize("m", range(1, 11))
def test_clifford_relation_is_exact_on_the_generators(m):
    # {rho(e_a), rho(e_b)} = 2 (e_a, e_b) Id over all pairs of generators, in
    # integers; by bilinearity rho(v)^2 = (v, v) Id for every v in V
    sm = spin_module(m)
    to, sgn = _generators(sm)
    assert _clifford_violations(sm, to, sgn) == []
    # control: flipping every sign of rho(e_1) breaks only {rho(e_1), rho(e*_1)} = Id
    sgn[0] *= -1
    assert _clifford_violations(sm, to, sgn) == [(0, m)]


# ------------------------------------ half-space builds against full ones


def _subset_tables_loop(basis):
    """Reference: the index of each basis subset's complement and the sign
    of the form there, one subset at a time."""
    index = {s: k for k, s in enumerate(basis)}
    m = len(basis[-1])
    partner, sign = [], []
    for s in basis:
        k = len(s)
        partner.append(index[tuple(x for x in range(m) if x not in s)])
        sign.append(-1 if (sum(s) - k * (k - 1) // 2 + k // 2) % 2 else 1)
    return np.array(partner), np.array(sign)


@pytest.mark.parametrize("m", range(1, 15))
def test_subset_masks_equal_per_subset_loop(m):
    # the tables built from the subsets' bitmasks, against the basis of tuples
    sm = SpinModule(m)
    partner, sign = _subset_tables_loop(sm.basis)
    assert _same_bytes(sm._form_sign, sign)
    assert partner.tolist() == list(range(sm.dim - 1, -1, -1))  # what _gram relies on
    tables = (sm.even_indices, sm.odd_indices, sm._form_sign, *sm._rho)
    assert not any(a.flags.writeable for a in tables)


@pytest.mark.parametrize("m", range(2, 13, 2))
def test_half_gram_equals_block_of_full_gram(m):
    # m = 12 has a 256 MB full Gram: build it on an uncached module, compare 256 rows at a time
    sm = SpinModule(m)
    full = sm.form_gram
    for side, idx in (("+", sm.even_indices), ("-", sm.odd_indices)):
        got = sm.half_space(side).gram
        assert (got.dtype, got.shape, got.flags.writeable) == (full.dtype, (len(idx),) * 2, False)
        for a in range(0, len(idx), 256):
            assert got[a:a + 256].tobytes() == full[idx[a:a + 256, None], idx].tobytes()
        if m <= 10:
            assert spin_module(m).half_space(side).gram.tobytes() == got.tobytes()


def test_half_space_builds_no_full_gram():
    sm = SpinModule(10)
    sm.half_space("+")
    assert list(sm._built) == ["space+"]


def test_tables_are_built_no_earlier_than_their_first_use():
    sm, v = SpinModule(10), np.ones(20)
    assert sm._built == {}
    sm.rho(v)
    assert sm._built == {}  # rho reads the table built with the module
    space = sm.half_space("+")
    assert list(sm._built) == ["space+"] and sm.half_space("+") is space
    assert sm.form_gram is sm.form_gram
    assert list(sm._built) == ["space+", "gram"]
