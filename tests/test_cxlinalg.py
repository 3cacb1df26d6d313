import re
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linalg_helpers import (det_value, expm, flag_space, form_preserving,
                            gram_from_quadratic, isotropic_vector_in_wrapped, mp_inverse_2d,
                            pf_value, solve_constraints_masked, span_with_invariants_stacked)
from parabolics import ampleness as am
from parabolics import cxlinalg as cx
from parabolics.ampleness import PF2, QuadricVariety, _nonample_patterns
from parabolics.spinor import spin_module


def _constructed_svd(rng, m, n, cond):
    k = min(m, n)
    U, _ = np.linalg.qr(cx.crandom(rng, m, m))
    V, _ = np.linalg.qr(cx.crandom(rng, n, n))
    s = np.geomspace(1.0, 1.0 / cond, k)
    return (U[:, :k] * s) @ V[:, :k].conj().T


@pytest.mark.parametrize("shape", [(8,), (6, 4), (3, 8)])
def test_crandom_bytes_equal_real_plus_i_imaginary_draws(shape):
    # the expression crandom computed before it wrote both parts in place
    for seed in range(6):
        x = np.random.default_rng(seed).standard_normal(2 * np.prod(shape, dtype=int) + 1)
        re_part, im_part = x[:-1].reshape(2, *shape)
        want = re_part + 1j * im_part
        rng = np.random.default_rng(seed)
        got = cx.crandom(rng, *shape)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert rng.standard_normal() == x[-1]  # the stream goes on where it did


_SVD_MODES = {"full": {}, "reduced": {"full_matrices": False}, "values": {"compute_uv": False}}


def _svd_inputs():
    rng = np.random.default_rng(12)
    return {"single": cx.crandom(rng, 5, 3), "wide": cx.crandom(rng, 3, 8),
            "stack": cx.crandom(rng, 4, 6, 4), "deep stack": cx.crandom(rng, 2, 3, 2, 2),
            "rank deficient": cx.crandom(rng, 6, 2) @ cx.crandom(rng, 2, 5),
            "zero": np.zeros((3, 4), dtype=complex),
            **{f"empty {s}": np.zeros(s, dtype=complex) for s in [(4, 0), (0, 4), (3, 4, 0)]}}


@pytest.mark.parametrize("mode", _SVD_MODES)
@pytest.mark.parametrize("name", _svd_inputs())
def test_svd_equals_numpys_bit_for_bit(name, mode):
    # svd calls numpy's private LAPACK gufunc: a numpy that renames it or
    # changes what it returns fails here rather than changing a result
    a, kwargs = _svd_inputs()[name], _SVD_MODES[mode]
    want, got = np.linalg.svd(a, **kwargs), cx.svd(a, **kwargs)
    if mode == "values":
        want, got = [want], [got]
    assert len(got) == len(want)
    for w, g in zip(want, got):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


@pytest.mark.parametrize("mode", _SVD_MODES)
def test_svd_raises_when_a_slice_does_not_converge(mode):
    a = cx.crandom(np.random.default_rng(0), 3, 4, 4)
    a[1, 2, 2] = np.nan
    for bad in (a, a[1]):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"), \
                pytest.warns(RuntimeWarning):
            cx.svd(bad, **_SVD_MODES[mode])
    cx.svd(a[::2], **_SVD_MODES[mode])  # the slices that converge pass


def test_every_svd_in_the_package_is_cxlinalg_svd():
    # and every least-squares solve is cxlinalg.lstsq
    calls = re.compile(r"\b(np|numpy)\.linalg\.(svd|lstsq)\b|linalg import .*\b(svd|lstsq)\b")
    found = [f"{p.name}:{i}" for p in sorted(Path(cx.__file__).parent.glob("*.py"))
             for i, line in enumerate(p.read_text().splitlines(), 1) if calls.search(line)]
    assert found == []


def _lstsq_inputs():
    rng = np.random.default_rng(21)
    return {"tall, one right-hand side": (cx.crandom(rng, 8, 2), cx.crandom(rng, 8)),
            "square, three": (cx.crandom(rng, 8, 8), cx.crandom(rng, 8, 3)),
            "wide": (cx.crandom(rng, 3, 5), cx.crandom(rng, 3, 2)),
            "rank deficient": (cx.crandom(rng, 6, 2) @ cx.crandom(rng, 2, 4), cx.crandom(rng, 6)),
            # singular values 1, 1e-6, 1e-12: rcond = eps * max(m, n) keeps the last
            "ill-conditioned": (_constructed_svd(rng, 6, 3, 1e12), cx.crandom(rng, 6)),
            "zero": (np.zeros((4, 2), dtype=complex), cx.crandom(rng, 4, 1))}


@pytest.mark.parametrize("name", _lstsq_inputs())
def test_lstsq_equals_numpys_bit_for_bit(name):
    a, b = _lstsq_inputs()[name]
    want, got = np.linalg.lstsq(a, b, rcond=None)[0], cx.lstsq(a, b)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("b_shape", [(4,), (4, 2)])
def test_lstsq_raises_when_lapack_does_not_converge(b_shape):
    a = cx.crandom(np.random.default_rng(0), 4, 3)
    a[1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"), \
            pytest.warns(RuntimeWarning):
        cx.lstsq(a, np.ones(b_shape, dtype=complex))


def _ulps(x, ref) -> float:
    return abs(x - ref) / np.spacing(ref) if ref else abs(x)


def _exact_s1(M) -> float:
    """The largest singular value of a 1 x 1 or 2 x 2 M, from M^H M in exact
    rationals and two 60-digit square roots, rounded once."""
    cols = list(zip(*[[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in M.tolist()]))
    # entry (i, j) of M^H M: column i conjugated, dotted with column j
    gram = [[sum((p[0] * q[0] + p[1] * q[1], p[0] * q[1] - p[1] * q[0])[part] for p, q in zip(u, v))
             for part in (0, 1)] for u in cols for v in cols]
    with localcontext() as ctx:
        ctx.prec = 60

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)
        if len(cols) == 1:
            return float(dec(gram[0][0]).sqrt())
        a, (br, bi), c = gram[0][0], gram[1], gram[3][0]
        return float((dec((a + c) / 2) + dec(((a - c) / 2) ** 2 + br * br + bi * bi).sqrt()).sqrt())


def _closed_form_inputs(n):
    """200 seeded complex n x n matrices of each kind the oracle reads."""
    rng = np.random.default_rng(30 + n)
    out = {"generic": [cx.crandom(rng, n, n) for _ in range(200)],
           "zero": [np.zeros((n, n), dtype=complex)]}
    # columns in proportion, and rows in proportion: rank 1 either way
    out["rank deficient"] = [cx.crandom(rng, n, 1) @ cx.crandom(rng, 1, n) for _ in range(200)]
    for e in (500, -500):
        out[f"2^{e}"] = [2.0 ** e * M for M in out["generic"][:100] + out["rank deficient"][:100]]
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_singular_values_closed_form_against_lapack(n):
    # the closed form and LAPACK agree to a few rounding errors on every kind
    eps = np.finfo(float).eps
    for kind, mats in _closed_form_inputs(n).items():
        for M in mats:
            got, want = cx.singular_values(M), cx.svd(M, compute_uv=False)
            assert len(got) == n and all(type(x) is float for x in got), kind
            assert got == sorted(got, reverse=True), kind
            assert _ulps(got[0], want[0]) <= 4, (kind, got, want)
            assert _ulps(got[0], _exact_s1(M)) <= 2, (kind, got)
            if n == 2:
                assert abs(got[1] - want[1]) <= 8 * eps * want[0], (kind, got, want)


def test_singular_values_fall_back_to_lapack():
    # s1^2 below the least normal float or above the largest, and every shape
    # but 1 x 1 and 2 x 2, give svd's values exactly
    rng = np.random.default_rng(33)
    mats = [2.0 ** -540 * cx.crandom(rng, 2, 2), 2.0 ** 520 * cx.crandom(rng, 2, 2),
            np.zeros((2, 2), dtype=complex), cx.crandom(rng, 3, 3), cx.crandom(rng, 2, 3),
            cx.crandom(rng, 3, 2), cx.crandom(rng, 1, 4), cx.crandom(rng, 4, 4)]
    for M in mats:
        assert cx.singular_values(M) == cx.svd(M, compute_uv=False).tolist(), M.shape


def test_closed_form_decisions_equal_the_lapack_route(monkeypatch):
    # Each singular_values call of the three decision sites that read values
    # only, reached by seeded non-ample draws, gives the verdict svd gives at
    # that site's cut; at least 10^4 calls of each site are in closed form.
    # The spaces the draws use all have a Gram of norm at most 1, so the
    # radical cut of _span_invariants is DEFAULT_TOL.
    cuts = {"span_with_invariants": cx.NONDEGENERATE_TOL, "_span_invariants": cx.DEFAULT_TOL,
            "_nonample_columns": am.MIX_RANK_TOL}
    real, closed, verdicts = cx.singular_values, Counter(), set()

    def both(M):
        got, site = real(M), sys._getframe(1).f_code.co_name
        want = cx.svd(M, compute_uv=False)
        assert [x > cuts[site] for x in got] == [x > cuts[site] for x in want], (site, M)
        if max(M.shape) <= 2:
            closed[site] += 1
            verdicts.add((site, got[-1] > cuts[site]))
        return got

    monkeypatch.setattr(cx, "singular_values", both)
    monkeypatch.setattr(am, "singular_values", both)
    spaces = [cx.symmetric_space(3), cx.symmetric_space(4), cx.det_space(), cx.pf_space(),
              spin_module(4).half_space("+"), spin_module(4).half_space("-")]
    assert all(max(sp.norm, 1.0) == 1.0 for sp in spaces)
    rng = np.random.default_rng(34)
    while min(closed[s] for s in cuts) < 10_000:
        for sp in spaces:
            am._nonample_columns(sp, 2, rng)
            cx.restriction_invariants(cx.crandom(rng, sp.dim, 2), sp)  # generic: no radical
    # The radical site met both verdicts.  Every nondegeneracy test of these
    # draws passed and no mix was rank deficient; the next test plants values
    # on both sides of each cut.
    assert verdicts == {("span_with_invariants", True), ("_span_invariants", False),
                        ("_span_invariants", True), ("_nonample_columns", True)}


@pytest.mark.parametrize("cut", [cx.NONDEGENERATE_TOL, cx.DEFAULT_TOL, am.MIX_RANK_TOL])
def test_closed_form_decisions_near_the_cut(cut):
    # s2 planted 10^-4 to 10^-2 of the cut on either side of it, under random
    # unitaries, with s1 in [1/2, 2]: both routes see the side it was planted on
    rng = np.random.default_rng(35)
    for _ in range(2000):
        (U, _), (V, _) = np.linalg.qr(cx.crandom(rng, 2, 2)), np.linalg.qr(cx.crandom(rng, 2, 2))
        side = rng.choice((-1.0, 1.0))
        s2 = cut * (1 + side * 10.0 ** rng.uniform(-4, -2))
        M = (U * [rng.uniform(0.5, 2.0), s2]) @ V.conj().T
        want = side > 0
        assert (cx.singular_values(M)[1] > cut) == want
        assert (cx.svd(M, compute_uv=False)[1] > cut) == want


def test_mp_inverse_scalar_and_zero():
    assert np.allclose(cx.mp_inverse(np.array([[2.0]])), [[0.5]])
    Z = cx.mp_inverse(np.zeros((3, 2)))
    assert Z.shape == (2, 3) and not Z.any()


def test_penrose_residuals_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        F = cx.crandom(rng, 5, 3)
        P = cx.mp_inverse(F)
        assert max(cx.penrose_residuals(F, P)) < 1e-10


def test_invertible_case_equals_inverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        F = cx.crandom(rng, 4, 4)
        P = cx.mp_inverse(F)
        inv = np.linalg.inv(F)
        assert np.linalg.norm(P - inv) < 1e-8 * np.linalg.norm(inv)


def test_mp_uniqueness_against_normal_equation_limit():
    # independent oracle: F+ = lim (F*F + dI)^-1 F*, evaluated at small d
    rng = np.random.default_rng(2)
    for _ in range(25):
        F = _constructed_svd(rng, 6, 4, cond=10.0)
        P = cx.mp_inverse(F)
        d = 1e-12
        Q = np.linalg.solve(F.conj().T @ F + d * np.eye(4), F.conj().T)
        assert np.linalg.norm(P - Q) < 1e-8 * np.linalg.norm(P)


def test_mp_rank_cut_drops_tiny_singular_values():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(cx.crandom(rng, 4, 4))
    V, _ = np.linalg.qr(cx.crandom(rng, 4, 4))
    F = (U * np.array([1.0, 0.5, 1e-14, 0.0])) @ V.conj().T
    P = cx.mp_inverse(F)
    assert np.linalg.norm(P, 2) < 3.0  # the 1e-14 direction is treated as zero


def test_sharp_adjoint_symmetric_and_symplectic():
    rng = np.random.default_rng(4)
    A = cx.crandom(rng, 4, 4)
    sym, sp = cx.symmetric_space(4), cx.symplectic_space(4)
    assert np.allclose(cx.sharp_adjoint(A, sym), A.T)
    I = sp.gram
    assert np.allclose(cx.sharp_adjoint(A, sp), -I @ A.T @ I)
    with pytest.raises(ValueError):
        cx.sharp_adjoint(np.eye(3), sym)


@pytest.mark.parametrize("space", [cx.symmetric_space(4), cx.symplectic_space(4),
                                   cx.det_space(), cx.pf_space()])
def test_sharp_adjoint_identity_and_antihomomorphism(space):
    rng = np.random.default_rng(5)
    n = space.dim
    A, B = cx.crandom(rng, n, n), cx.crandom(rng, n, n)
    As = cx.sharp_adjoint(A, space)
    basis = np.eye(n)
    for i in range(n):
        for j in range(n):
            lhs = space.omega(A @ basis[i], basis[j])
            rhs = space.omega(basis[i], As @ basis[j])
            assert abs(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(A))
    lhs = cx.sharp_adjoint(A @ B, space)
    rhs = cx.sharp_adjoint(B, space) @ cx.sharp_adjoint(A, space)
    assert np.allclose(lhs, rhs)


def test_restriction_invariants_examples():
    sym3 = cx.symmetric_space(3)
    assert cx.restriction_invariants([1, 0, 0], sym3) == (1, 0)
    assert cx.restriction_invariants([1, 1j, 0], sym3) == (1, 1)
    assert cx.restriction_invariants(np.zeros((3, 2)), sym3) == (0, 0)


def test_restriction_invariants_rejects_row_vectors():
    # a (k, dim) input is not read as k row vectors: only (dim, k) columns
    sym3 = cx.symmetric_space(3)
    rows = np.array([[1, 1j, 0], [0, 0, 1]])
    assert cx.restriction_invariants(rows.T, sym3) == (2, 1)
    for bad in (rows[:, :2], np.zeros((2, 3)), np.zeros(4), np.zeros((3, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            cx.restriction_invariants(bad, sym3)


def test_restriction_invariants_basis_independent():
    rng = np.random.default_rng(6)
    sp = cx.pf_space()
    M = cx.span_with_invariants(sp, 3, 1, rng)
    for _ in range(20):
        mix = cx.crandom(rng, 3, 5)
        assert cx.restriction_invariants(M @ mix, sp) == (3, 1)


def test_witt_pairs_dim2_into_3():
    # realizable (rank, radical) pairs for maps C^2 -> C^3 with a symmetric form
    sym3 = cx.symmetric_space(3)
    rng = np.random.default_rng(7)
    realized = {cx.restriction_invariants(np.zeros((3, 2)), sym3)}
    for (i, j) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        M = cx.span_with_invariants(sym3, i, j, rng)
        cols = M @ cx.crandom(rng, i, 2) if i < 2 else M
        assert cx.restriction_invariants(cols, sym3) == (i, j)
        realized.add((i, j))
    assert realized == {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)}
    with pytest.raises(ValueError):
        cx.span_with_invariants(sym3, 2, 2, rng)  # j > dim - rank


def test_symplectic_space_refuses_an_odd_dimension():
    with pytest.raises(ValueError) as exc:
        cx.symplectic_space(5)
    assert str(exc.value) == "symplectic form needs even dimension"


def test_span_with_invariants_refuses_an_odd_skew_nondegenerate_part():
    # (3, 0) fits in dimension 6, but a skew Gram of odd size is singular
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError) as exc:
        cx.span_with_invariants(cx.symplectic_space(6), 3, 0, rng)
    assert str(exc.value) == "skew form: the nondegenerate part must have even rank"
    assert rng.bit_generator.state == np.random.default_rng(6).bit_generator.state


@pytest.mark.parametrize("space", [cx.symmetric_space(3), cx.symplectic_space(4)])
def test_span_with_invariants_empty_span(space):
    # (0, 0) is realizable in any space: the span is empty and takes no draw
    rng = np.random.default_rng(5)
    M = cx.span_with_invariants(space, 0, 0, rng)
    assert M.shape == (space.dim, 0)
    assert cx.restriction_invariants(M, space) == (0, 0)
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state


def _same_array(got, want) -> bool:
    """Equal bytes, dtype, shape and C/F contiguity (both None also counts)."""
    if got is None or want is None:
        return got is want
    return (got.dtype, got.shape, got.flags.c_contiguous, got.flags.f_contiguous,
            got.tobytes()) == (want.dtype, want.shape, want.flags.c_contiguous,
                               want.flags.f_contiguous, want.tobytes())


def _twin(rng):
    """A generator in the state rng is in, drawing apart from it."""
    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits)


def test_rewritten_draws_equal_the_wrapped_reference_byte_for_byte(monkeypatch):
    # Every space the specs draw from, at the widest k it is drawn for, and a
    # skew space; every (rank, radical) _nonample_columns can pick there.  Each
    # call of the two inner kernels is checked against its reference on the
    # same input, and each span against the reference span on its own stream.
    sm = spin_module(4)
    spaces = [(cx.symmetric_space(3), 2), (cx.symmetric_space(4), 4), (cx.det_space(), 4),
              (cx.pf_space(), 4), (sm.half_space("+"), 3), (sm.half_space("-"), 3),
              (cx.symplectic_space(6), 5)]
    solve, isotropic, checked = cx._solve_constraints, cx.isotropic_vector_in, []

    def solve_both(C, dim):
        got = solve(C, dim)
        assert _same_array(got, solve_constraints_masked(C, dim))
        checked.append("solve")
        return got

    def isotropic_both(space, basis, rng):
        twin = _twin(rng)
        got = isotropic(space, basis, rng)
        assert _same_array(got, isotropic_vector_in_wrapped(space, basis, twin))
        assert rng.bit_generator.state == twin.bit_generator.state
        checked.append("isotropic")
        return got

    monkeypatch.setattr(cx, "_solve_constraints", solve_both)
    monkeypatch.setattr(cx, "isotropic_vector_in", isotropic_both)
    patterns = set()
    for space, k in spaces:
        for rank, radical in _nonample_patterns(space.dim, space.symmetric, k):
            patterns.add((space.kind, space.dim, rank, radical))
            for seed in range(50):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = cx.span_with_invariants(space, rank, radical, rng)
                want = span_with_invariants_stacked(space, rank, radical, ref)
                assert _same_array(got, want), (space.kind, rank, radical, seed)
                assert rng.bit_generator.state == ref.bit_generator.state
    assert len(patterns) == 19 and {("symplectic-I", 6, 5, 1), ("pf-on-L2C4", 6, 4, 2)} <= patterns
    assert checked.count("solve") >= 950 and checked.count("isotropic") >= 950


def test_quadratic_value_examples():
    assert det_value([1, 0, 0, 1]) == 1
    assert pf_value([1, 0, 0, 0, 0, 1]) == 1
    assert pf_value([1, 0, 0, 0, 0, 0]) == 0
    with pytest.raises(ValueError):
        det_value([1, 0, 0])
    with pytest.raises(ValueError):
        pf_value([1, 0, 0, 1])


def test_pf_value_against_wedge_expansion():
    # oracle: expand x ^ x over the 15 basis pairs and read the top coefficient
    rng = np.random.default_rng(8)
    for _ in range(30):
        x = cx.crandom(rng, 6)
        top = 0.0
        for a, (i1, j1) in enumerate(PF2):
            for b, (i2, j2) in enumerate(PF2):
                if {i1, j1} | {i2, j2} == {0, 1, 2, 3} and not {i1, j1} & {i2, j2}:
                    perm = (i1, j1, i2, j2)
                    inversions = sum(1 for p in range(4) for q in range(p + 1, 4)
                                     if perm[p] > perm[q])
                    top += x[a] * x[b] * (-1) ** inversions
        assert abs(top / 2 - pf_value(x)) < 1e-10


@pytest.mark.parametrize("space", [cx.det_space(), cx.pf_space()])
def test_polarization_gram_matches_quadratic(space):
    value = det_value if space.dim == 4 else pf_value
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = cx.crandom(rng, space.dim)
        assert abs(space.quadratic(x) - value(x)) < 1e-10
    assert abs(np.linalg.det(space.gram)) > 1e-6


def test_form_preserving_preserves_gram():
    rng = np.random.default_rng(10)
    for space in (cx.symmetric_space(5), cx.symplectic_space(6),
                  cx.det_space(), cx.pf_space()):
        h = form_preserving(space, rng)
        assert np.allclose(h.T @ space.gram @ h, space.gram, atol=1e-10)


def test_expm_against_eigendecomposition():
    rng = np.random.default_rng(11)
    X = cx.crandom(rng, 5, 5)
    w, V = np.linalg.eig(X)
    expected = V @ np.diag(np.exp(w)) @ np.linalg.inv(V)
    assert np.allclose(expm(X), expected, atol=1e-10)


@pytest.mark.parametrize("space, value", [(cx.det_space(), det_value), (cx.pf_space(), pf_value)])
def test_closed_form_gram_equals_polarisation_loop(space, value):
    # byte for byte, so signed zeros count too
    assert space.gram.tobytes() == gram_from_quadratic(value, space.dim).tobytes()


@pytest.mark.parametrize("make, args", [(cx.symmetric_space, (5,)), (cx.symplectic_space, (6,)),
                                        (cx.det_space, ()), (cx.pf_space, ())])
def test_cached_constructor_returns_one_read_only_space(make, args):
    space = make(*args)
    assert make(*args) is space
    assert not space.gram.flags.writeable
    with pytest.raises(ValueError):
        space.gram[0, 0] = 1


def _spaces_with_constants():
    yield from (cx.symmetric_space(n) for n in range(1, 9))
    yield from (cx.symplectic_space(n) for n in range(2, 9, 2))
    yield from (cx.det_space(), cx.pf_space())
    yield from (spin_module(m).half_space(side) for m in (2, 4, 6) for side in "+-")
    for u, w, kind in [(3, 2, "symmetric"), (3, 3, "symmetric"), (3, 0, "symmetric"),
                       (2, 4, "skew"), (3, 2, "skew"), (3, 0, "skew")]:
        yield flag_space(u, w, kind)


def test_space_constants_equal_recomputation():
    for space in _spaces_with_constants():
        G = space.gram
        assert not G.flags.writeable, space.kind
        assert space.symmetric == bool(np.array_equal(G, G.T)), space.kind
        assert space.norm == np.linalg.norm(G, 2), space.kind
        # a second read returns the cached value
        assert space.norm is space.norm and space.symmetric is space.symmetric


def test_space_from_writable_array_cannot_change():
    gram = np.eye(3, dtype=complex)
    space = cx.BilinearSpace("sym", 3, gram)
    assert space.norm == 1.0 and space.symmetric
    gram[0, 1] = 5
    assert space.gram[0, 1] == 0 and space.symmetric
    with pytest.raises(ValueError):
        space.gram[0, 1] = 5
    # a read-only Gram is shared, not copied
    frozen = np.eye(3, dtype=complex)
    frozen.setflags(write=False)
    assert cx.BilinearSpace("sym", 3, frozen).gram is frozen


def test_spaces_and_spin_modules_compare_by_identity():
    sp = cx.symmetric_space(3)
    assert sp == cx.symmetric_space(3) and hash(sp) == hash(cx.symmetric_space(3))
    a = cx.BilinearSpace("x", 2, np.eye(2, dtype=complex))
    b = cx.BilinearSpace("x", 2, np.eye(2, dtype=complex))
    assert a == a and a != b and len({a, b, sp}) == 3
    assert QuadricVariety(sp) == QuadricVariety(sp) and QuadricVariety(a) != QuadricVariety(b)
    assert hash(QuadricVariety(sp)) == hash(QuadricVariety(sp))
    sm = spin_module(3)
    assert sm == spin_module(3) and sm != spin_module(4)
    assert hash(sm) == hash(spin_module(3))


@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 6), (8, 8), (1, 4)])
def test_mp_inverse_stack_equals_each_slice(shape):
    rng = np.random.default_rng(sum(shape))
    m, n = shape
    F = cx.crandom(rng, 40, m, n)
    F[3] = 0  # zero slice
    u, v = cx.crandom(rng, m), cx.crandom(rng, n)
    F[5] = np.outer(u, v.conj())  # rank 1: a cut unless min(m, n) == 1
    for t in range(6, 12):  # rank cuts at conditioning up to 1e14
        F[t] = _constructed_svd(rng, m, n, 10.0 ** rng.uniform(0, 14))
    P = cx.mp_inverse(F)
    assert P.shape == (40, n, m)
    for t in range(40):
        assert P[t].tobytes() == mp_inverse_2d(F[t]).tobytes()
        assert P[t].tobytes() == cx.mp_inverse(F[t]).tobytes()
    deep = cx.mp_inverse(F.reshape(4, 10, m, n))
    assert deep.tobytes() == P.tobytes()
    if min(m, n) > 1:  # the stack held slices with and without a cut
        s = np.linalg.svd(F, compute_uv=False)
        cut = (s <= cx.DEFAULT_TOL * s[:, :1]).any(axis=1)
        assert cut.any() and not cut.all()


def test_frobenius_equals_norm_of_each_matrix():
    rng = np.random.default_rng(3)
    for shape in [(30, 7, 7), (12, 2, 9), (5, 16, 16), (2, 3, 4, 4)]:
        X = cx.crandom(rng, *shape)
        got = cx.frobenius(X - X.conj().swapaxes(-1, -2) if shape[-1] == shape[-2] else X)
        for idx in np.ndindex(shape[:-2]):
            Y = X[idx] - X[idx].conj().T if shape[-1] == shape[-2] else X[idx]
            assert got[idx] == np.linalg.norm(Y)
    assert cx.frobenius(np.eye(3)) == float(np.linalg.norm(np.eye(3)))


def test_orth_and_sharp_adjoint_stacks_equal_each_slice():
    rng = np.random.default_rng(21)
    M = cx.crandom(rng, 30, 6, 4)
    M[2] = 0
    M[4] = np.outer(cx.crandom(rng, 6), cx.crandom(rng, 4))
    Q = cx.orth(M)
    assert Q.shape == (30, 6, 4)
    for t in range(30):  # each basis, then zero columns up to min(m, n)
        q = cx.orth(M[t])
        assert Q[t, :, :q.shape[1]].tobytes() == q.tobytes()
        assert not Q[t, :, q.shape[1]:].any()
    assert cx.orth(M[4]).shape[1] == 1 and cx.orth(M[2]).shape[1] == 0
    space = cx.symplectic_space(6)
    X = cx.crandom(rng, 10, 6, 6)
    S = cx.sharp_adjoint(X, space)
    for t in range(10):
        assert S[t].tobytes() == cx.sharp_adjoint(X[t], space).tobytes()
    with pytest.raises(ValueError):
        cx.sharp_adjoint(X[0, 0], space)


def _counting(monkeypatch, name):
    """Wrap cxlinalg.<name> so that each call's result is recorded."""
    real, results = getattr(cx, name), []

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(cx, name, wrapper)
    return results


def test_span_with_invariants_degenerate_gram_exhausts_every_retry(monkeypatch):
    # a zero Gram has no nondegenerate part: each of the 64 rounds makes 200
    # attempts, one draw each, and then the pattern is reported unrealizable
    zero = cx.BilinearSpace("zero", 2, np.zeros((2, 2), dtype=complex))
    draws = _counting(monkeypatch, "crandom")
    with pytest.raises(RuntimeError, match=r"could not realize \(rank, radical\) = \(1, 0\)"):
        cx.span_with_invariants(zero, 1, 0, np.random.default_rng(0))
    assert len(draws) == 64 * 200


@pytest.mark.parametrize("scale, realized", [(1e-7, False), (1e-5, True)])
def test_span_nondegenerate_part_cut_is_absolute(scale, realized):
    # unit columns under a Gram of norm 1e-7 have restricted singular values
    # below the 1e-6 cut, so every nondegenerate part is rejected
    small = cx.BilinearSpace("small", 3, scale * np.eye(3, dtype=complex))
    rng = np.random.default_rng(1)
    if realized:
        assert cx.restriction_invariants(cx.span_with_invariants(small, 2, 1, rng), small) == (2, 1)
    else:
        with pytest.raises(RuntimeError):
            cx.span_with_invariants(small, 2, 1, rng)


def _general_gram(n, seed):
    """A Gram that is neither symmetric nor skew."""
    return cx.BilinearSpace("general", n, cx.crandom(np.random.default_rng(seed), n, n))


def test_span_retries_when_no_radical_vector_exists(monkeypatch):
    # a general Gram makes the two columns of the nondegenerate part impose
    # four independent conditions on C^4, so no radical vector is left
    found = _counting(monkeypatch, "isotropic_vector_in")
    with pytest.raises(RuntimeError):
        cx.span_with_invariants(_general_gram(4, 2), 3, 1, np.random.default_rng(2))
    assert len(found) == 64 and all(v is None for v in found)


def test_span_retries_when_the_invariants_differ(monkeypatch):
    # under a general Gram the random "radical" vectors are not isotropic, so
    # every round's columns have full rank but a nondegenerate restricted form
    space = _general_gram(4, 3)
    found = _counting(monkeypatch, "isotropic_vector_in")
    with pytest.raises(RuntimeError):
        cx.span_with_invariants(space, 2, 2, np.random.default_rng(3))
    assert len(found) == 64 * 2
    M = np.column_stack(found[-2:])
    assert np.linalg.svd(M, compute_uv=False)[-1] > 1e-8
    assert cx.restriction_invariants(M, space) == (2, 0)


@pytest.mark.parametrize("plant", ["copy", "scaled"])
def test_span_rejects_planted_rank_deficient_columns(plant, monkeypatch):
    # the first round's second radical vector is planted: a copy of the first
    # (rank 1) or scaled by 1e-9, which only the absolute 1e-8 cut rejects:
    # its relative singular value passes DEFAULT_TOL and its span is (2, 2)
    sp = cx.symmetric_space(4)
    real, found = cx.isotropic_vector_in, []

    def planted(*args):
        found.append(real(*args))
        if len(found) == 2:
            found[1] = found[0].copy() if plant == "copy" else 1e-9 * found[1]
        return found[-1]
    monkeypatch.setattr(cx, "isotropic_vector_in", planted)
    M = cx.span_with_invariants(sp, 2, 2, np.random.default_rng(4))
    bad = np.column_stack(found[:2])
    s = np.linalg.svd(bad, compute_uv=False)
    if plant == "scaled":
        assert cx.DEFAULT_TOL * s[0] < s[1] < 1e-8
        assert cx.restriction_invariants(bad, sp) == (2, 2)
    assert len(found) == 4 and np.array_equal(M, np.column_stack(found[2:]))
    assert np.linalg.svd(M, compute_uv=False)[-1] > 1e-8
    assert cx.restriction_invariants(M, sp) == (2, 2)


def _first_draws(basis, seed):
    rng = np.random.default_rng(seed)
    k = basis.shape[1]
    return basis @ cx.crandom(rng, k), basis @ cx.crandom(rng, k)


def test_isotropic_vector_in_totally_isotropic_span():
    # on span(e12, e13) the Pfaffian form vanishes: q(b) = omega(a, b) = 0,
    # and the second draw b itself is returned, normalized
    basis = np.eye(6, dtype=complex)[:, :2]
    v = cx.isotropic_vector_in(cx.pf_space(), basis, np.random.default_rng(5))
    _, b = _first_draws(basis, 5)
    assert np.array_equal(v, b / np.linalg.norm(b))


def test_isotropic_vector_in_linear_branch():
    # a form of size 1e-10: q(b) falls under DEFAULT_TOL while omega(a, b) does not,
    # so q(a + t b) is solved as linear in t, and that vector is returned
    space = cx.BilinearSpace("tiny", 2, 1e-10 * np.array([[0, 1], [1, 0]], dtype=complex))
    basis = np.eye(2, dtype=complex)
    a, b = _first_draws(basis, 4)
    qa, qb, qab = space.quadratic(a), space.quadratic(b), space.omega(a, b)
    assert abs(qb) <= cx.DEFAULT_TOL < abs(qab)
    w = a - qa / (2 * qab) * b
    v = cx.isotropic_vector_in(space, basis, np.random.default_rng(4))
    assert np.array_equal(v, w / np.linalg.norm(w))


def test_isotropic_vector_in_gives_up_on_a_tiny_basis():
    # a basis of norm 1e-6 makes every q value fall under DEFAULT_TOL, and no draw
    # b / |b| is isotropic for the identity form
    basis = 1e-6 * np.eye(3, dtype=complex)
    assert cx.isotropic_vector_in(cx.symmetric_space(3), basis, np.random.default_rng(7)) is None
    assert cx.isotropic_vector_in(cx.symmetric_space(3), basis[:, :0], np.random.default_rng(7)) is None
