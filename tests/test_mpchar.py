import numpy as np
import pytest

from linalg_helpers import embed_e_lambda, embed_f_lambda, flag_space, mp_inverse_2d
from parabolics import cxlinalg as cx
from parabolics import mpchar as mc


def test_verify_sl2_zero_and_standard():
    z = np.zeros((2, 2))
    assert mc.verify_sl2(z, z, z).accepted()
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    h = np.diag([1.0, -1.0]).astype(complex)
    assert mc.verify_sl2(e, h, f).accepted()


def test_verify_sl2_rejects_wrong_h():
    e = np.array([[0, 1], [0, 0]], dtype=complex)
    f = np.array([[0, 0], [1, 0]], dtype=complex)
    t = mc.verify_sl2(e, np.eye(2), f)
    assert not t.accepted()
    assert abs(t.residuals[1] - 2.0) < 1e-12  # |[h,e] - 2e| = 2|e|
    with pytest.raises(ValueError):
        mc.verify_sl2(e, np.eye(3), f)


def test_gl_characteristic_scalar_block():
    x = mc.BlockNilpotent((1, 1), {(1, 2): np.array([[2.0]])})
    t = mc.gl_hermitian_characteristic(x)[(1, 2)]
    assert t.accepted()
    assert np.isclose(t.f[0, 1], 0.5)
    # h acts as e e+ = 1 on V_2 and -e+ e = -1 on V_1
    assert np.isclose(t.h[1, 1], 1.0) and np.isclose(t.h[0, 0], -1.0)
    # rank-1 block with entry 1 gives the same h
    x1 = mc.BlockNilpotent((1, 1), {(1, 2): np.array([[1.0]])})
    t1 = mc.gl_hermitian_characteristic(x1)[(1, 2)]
    assert np.allclose(t1.h, t.h) and np.isclose(t1.f[0, 1], 1.0)


@pytest.mark.parametrize("dims", [(2, 3, 2), (1, 4, 2, 1)])
def test_gl_characteristic_random_blocks(dims):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = mc.random_block_nilpotent(rng, dims)
        triples = mc.gl_hermitian_characteristic(x)
        assert len(triples) == len(x.blocks)
        for (i, j), t in triples.items():
            assert t.accepted()
            assert np.linalg.norm(t.h - t.h.conj().T) < 1e-10
            # Penrose equivalence: (e e+) e = e within the block
            eb, fb = x.blocks[(i, j)], t.f[np.ix_(
                range(x.offset(i), x.offset(i) + x.dims[i - 1]),
                range(x.offset(j), x.offset(j) + x.dims[j - 1]))]
            assert np.linalg.norm(eb @ fb @ eb - eb) < 1e-9 * (1 + np.linalg.norm(eb))


def test_block_nilpotent_validation():
    with pytest.raises(ValueError):
        mc.BlockNilpotent((2, 2), {(2, 1): np.zeros((2, 2))})
    with pytest.raises(ValueError):
        mc.BlockNilpotent((2, 2), {(1, 2): np.zeros((3, 2))})


# ------------------------------------------- the flag form's g_lambda


def _skew_residual(M, G):
    return np.linalg.norm(M.T @ G + G @ M)


@pytest.mark.parametrize("kind", ["symmetric", "skew"])
def test_embeddings_are_form_skew(kind):
    rng = np.random.default_rng(1)
    for u in (2, 3):
        space = flag_space(u, 4, kind)
        assert _skew_residual(embed_e_lambda(cx.crandom(rng, 4, u), space), space.gram) < 1e-12
        assert _skew_residual(embed_f_lambda(cx.crandom(rng, u, 4), space), space.gram) < 1e-12


# ----------------------------------------------------------- the lemma


@pytest.mark.parametrize("kind,space", [
    ("sym", cx.symmetric_space(6)), ("skew", cx.symplectic_space(6))])
def test_lemma_zero_input(kind, space):
    sol = mc.lemma_B_from_A(np.zeros((6, 4)), space)
    assert not sol.B.any()
    assert max(mc.lemma_residuals(sol, space).values()) < 1e-12


@pytest.mark.parametrize("kind,space", [
    ("sym", cx.symmetric_space(6)), ("skew", cx.symplectic_space(6))])
def test_lemma_random_inputs(kind, space):
    assert mc.lemma_worst_residual(np.random.default_rng(2), space, 4, 50) < 1e-9


def test_lemma_nondegenerate_image_scales_section_by_two():
    # with an empty radical, AB doubles the projection onto Im A
    rng = np.random.default_rng(3)
    space = cx.symmetric_space(6)
    for _ in range(10):
        A = cx.crandom(rng, 6, 4)
        sol = mc.lemma_B_from_A(A, space)
        if sol.W0.shape[1]:
            continue
        AB = A @ sol.B
        assert np.linalg.norm(AB @ sol.W1 - 2 * sol.W1) < 1e-9


@pytest.mark.parametrize("kind,space,patterns", [
    ("sym", cx.symmetric_space(6), [(2, 1), (3, 1), (4, 2), (3, 2), (2, 2)]),
    ("skew", cx.symplectic_space(6), [(3, 1), (4, 2), (2, 2), (3, 3)])])
def test_lemma_degenerate_images_and_patterns(kind, space, patterns):
    rng = np.random.default_rng(4)
    saw_radical = 0
    for trial in range(50):
        i, j = patterns[trial % len(patterns)]
        M = cx.span_with_invariants(space, i, j, rng)
        A = M @ cx.crandom(rng, M.shape[1], 4)
        sol = mc.lemma_B_from_A(A, space)
        saw_radical += sol.W0.shape[1] > 0
        assert max(mc.lemma_residuals(sol, space).values()) < 1e-9
        # displayed action of AB on the four summands: Id, 2 Id, 0, 0
        AB = A @ sol.B
        for W, coeff in ((sol.W0, 1), (sol.W1, 2), (sol.W2, 0), (sol.W3, 0)):
            if W.shape[1]:
                assert np.linalg.norm(AB @ W - coeff * W) < 1e-9
        # displayed action of (AB)# on the four summands: 0, 2 Id, Id, 0
        ABs = cx.sharp_adjoint(AB, space)
        for W, coeff in ((sol.W0, 0), (sol.W1, 2), (sol.W2, 1), (sol.W3, 0)):
            if W.shape[1]:
                assert np.linalg.norm(ABs @ W - coeff * W) < 1e-9
        # BA acts as Id, 2 Id, 0 on U0, U1, U2
        BA = sol.B @ A
        for U, coeff in ((sol.U0, 1), (sol.U1, 2), (sol.U2, 0)):
            if U.shape[1]:
                assert np.linalg.norm(BA @ U - coeff * U) < 1e-9
    assert saw_radical == 50


def test_lemma_shape_mismatch():
    with pytest.raises(ValueError):
        mc.lemma_B_from_A(np.zeros((5, 4)), cx.symmetric_space(6))


@pytest.mark.parametrize("kind", ["symmetric", "skew"])
def test_lemma_embeds_to_hermitian_sl2_in_classical_grading(kind):
    # the (A, B) pair gives a homogeneous sl2 triple of omega-skew maps whose
    # h is Hermitian for the product that is standard on W and the returned
    # form on U
    rng = np.random.default_rng(5)
    space = cx.symmetric_space(6) if kind == "symmetric" else cx.symplectic_space(6)
    V = flag_space(4, 6, kind)
    for trial in range(10):
        if trial % 2 == 0:
            A = cx.crandom(rng, 6, 4)
        else:
            M = cx.span_with_invariants(space, 3, 1, rng)
            A = M @ cx.crandom(rng, 3, 4)
        sol = mc.lemma_B_from_A(A, space)
        e = embed_e_lambda(A, V)
        f = embed_f_lambda(sol.B, V)
        h = e @ f - f @ e
        for x in (e, f, h):
            assert _skew_residual(x, V.gram) < 1e-12 * (1 + np.linalg.norm(x) ** 2)
        residuals = mc.verify_sl2(e, h, f).residuals
        assert max(residuals[:3]) < 1e-8, residuals
        # Hermitian with respect to blockdiag((H^T)^-1 on U+, H on U-, Id on W)
        Hu = sol.hermitian_u
        HV = np.zeros((14, 14), dtype=complex)
        HV[:4, :4] = np.linalg.inv(Hu.T)
        HV[4:8, 4:8] = Hu
        HV[8:, 8:] = np.eye(6)
        herm = np.linalg.norm(h.conj().T @ HV - HV @ h)
        assert herm < 1e-8 * (1 + np.linalg.norm(h)), herm


def _space(kind):
    return cx.symmetric_space(6) if kind == "sym" else cx.symplectic_space(6)


def _assert_stack_equals_each_slice(A, space):
    """A, B, H and every residual of the stacked solution equal, slice by
    slice, a lone call on that slice: shape, dtype and bytes.  Returns the
    stacked solution and the lone ones."""
    sol = mc.lemma_B_from_A(A, space)
    assert sol[3:] == (None,) * 7  # a stack carries no splitting
    res = mc.lemma_residuals(sol, space)
    ones = []
    for idx in np.ndindex(A.shape[:-2]):
        one = mc.lemma_B_from_A(A[idx], space)
        for name in ("A", "B", "hermitian_u"):
            got, want = getattr(sol, name)[idx], getattr(one, name)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), name
            assert got.tobytes() == want.tobytes(), name
        for name, value in mc.lemma_residuals(one, space).items():
            got = np.asarray(res[name][idx])
            assert got.dtype == np.asarray(value).dtype and got.tobytes() == np.asarray(value).tobytes()
        ones.append(one)
    return sol, ones


@pytest.mark.parametrize("kind,u", [("sym", 4), ("skew", 4), ("sym", 8), ("skew", 3)])
def test_lemma_stack_equals_each_slice(kind, u):
    # u = 8 > 6 leaves a kernel in every slice and an odd u gives every
    # skew restricted Gram a radical, so those stacks have no generic slice
    space, rng = _space(kind), np.random.default_rng(12)
    A = cx.crandom(rng, 24, 6, u)
    A[1] = 0
    A[3] = cx.crandom(rng, 6, 2) @ cx.crandom(rng, 2, u)
    A[5] = cx.span_with_invariants(space, 2, 2, rng) @ cx.crandom(rng, 2, u)
    sol, ones = _assert_stack_equals_each_slice(A, space)
    generic = [not (one.W0.size or one.U2.size) for one in ones]
    assert not (generic[1] or generic[3] or generic[5])
    assert ones[5].W0.shape[1] > 0  # the isotropic image is its own radical
    assert any(generic) == (u == 4)
    deep = mc.lemma_B_from_A(A.reshape(4, 6, 6, u), space)
    assert deep.B.tobytes() == sol.B.tobytes()
    assert deep.hermitian_u.tobytes() == sol.hermitian_u.tobytes()


def test_lemma_refuses_bases_that_do_not_fill_u(monkeypatch):
    # an orth that loses a direction of every span leaves T short of U
    monkeypatch.setattr(mc, "orth", lambda M, usv=None: cx.orth(M, usv)[:, :-1])
    A = cx.crandom(np.random.default_rng(16), 6, 4)
    with pytest.raises(RuntimeError) as exc:
        mc.lemma_B_from_A(A, cx.symmetric_space(6))
    assert str(exc.value) == "U0 + U1 + U2 failed to fill U; rank tolerance too tight"


@pytest.mark.parametrize("kind", ["sym", "skew"])
def test_lemma_worst_residual_equals_stacks_of_one(kind):
    space, rng = _space(kind), np.random.default_rng(13)
    worst = 0.0
    for _ in range(40):
        res = mc.lemma_residuals(mc.lemma_B_from_A(cx.crandom(rng, 6, 4)[None], space), space)
        worst = max(worst, *(float(r[0]) for r in res.values()))
    assert mc.lemma_worst_residual(np.random.default_rng(13), space, 4, 40) == worst


def _near_isotropic_maps(space, eps, count=300):
    """A = P M + eps N: P a basis of a totally isotropic 2-plane, M and N
    complex Gaussian."""
    rng = np.random.default_rng(14)
    return np.stack([cx.span_with_invariants(space, 2, 2, rng) @ cx.crandom(rng, 2, 4)
                     + eps * cx.crandom(rng, 6, 4) for _ in range(count)])


@pytest.mark.parametrize("kind", ["sym", "skew"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_lemma_near_isotropic_images_pass_the_gate(kind, eps):
    space = _space(kind)
    res = mc.lemma_residuals(mc.lemma_B_from_A(_near_isotropic_maps(space, eps), space), space)
    assert max(float(r.max()) for r in res.values()) < 1e-9


@pytest.mark.parametrize("kind", ["sym", "skew"])
@pytest.mark.parametrize("eps", [1e-4, 1e-5])
def test_lemma_near_isotropic_herm_ab_stays_at_the_rounding_of_ab(kind, eps):
    # AB - (AB)# vanishes in exact arithmetic here (no radical), so herm_ab
    # is the rounding of forming A @ B, about u ||A|| ||B||, which grows like 1/eps
    space = _space(kind)
    sol = mc.lemma_B_from_A(_near_isotropic_maps(space, eps), space)
    floor = np.finfo(float).eps * cx.frobenius(sol.A) * cx.frobenius(sol.B)
    assert (mc.lemma_residuals(sol, space)["herm_ab"] <= 64 * floor).all()


def test_planted_inexact_inverse_fails_the_gl_bracket_residual(monkeypatch):
    # h comes from orthonormal bases of Im e and Im e*, not from f, so a
    # wrong f shows in ||[e, f] - h||
    monkeypatch.setattr(mc, "mp_inverse", lambda F, usv=None: 1.001 * cx.mp_inverse(F, usv))
    x = mc.random_block_nilpotent(np.random.default_rng(15), (2, 3, 2))
    for t in mc.gl_hermitian_characteristic(x).values():
        assert t.residuals[0] > mc.DEFAULT_SL2_TOL


def _gl_characteristic_per_trial(x):
    """The one-element gl characteristic as written before stacks: the 2-D
    Moore-Penrose expression, the image and coimage projectors from 2-D
    bases, embedding and residual norms."""
    def embed(i, j, m):
        E = np.zeros((x.total_dim, x.total_dim), dtype=complex)
        oi, oj = x.offset(i), x.offset(j)
        E[oj: oj + x.dims[j - 1], oi: oi + x.dims[i - 1]] = m
        return E

    def projector(m):
        q = cx.orth(m)
        return q @ q.conj().T

    out = {}
    for (i, j), b in sorted(x.blocks.items()):
        e, f = embed(i, j, b), embed(j, i, mp_inverse_2d(b))
        h = embed(j, j, projector(b)) - embed(i, i, projector(b.conj().T))
        out[(i, j)] = (e, h, f, (
            float(np.linalg.norm((e @ f - f @ e) - h)),
            float(np.linalg.norm((h @ e - e @ h) - 2 * e)),
            float(np.linalg.norm((h @ f - f @ h) + 2 * f)),
            float(np.linalg.norm(h - h.conj().T)),
        ))
    return out


@pytest.mark.parametrize("dims", mc.GL_TRIAL_DIMS)
def test_stacked_gl_characteristic_equals_per_trial_loop(dims):
    rng = np.random.default_rng(11)
    xs = [mc.random_block_nilpotent(rng, dims) for _ in range(25)]
    wide = max(xs[0].blocks, key=lambda ij: min(xs[0].blocks[ij].shape))
    xs[2].blocks[wide][...] = 0
    r, c = xs[4].blocks[wide].shape
    xs[4].blocks[wide][...] = np.outer(cx.crandom(rng, r), cx.crandom(rng, c))
    s = np.linalg.svd(xs[4].blocks[wide], compute_uv=False)
    assert s[1] <= cx.DEFAULT_TOL * s[0]  # rank 1 in a block of rank 2: a cut
    stack = mc.BlockNilpotent(dims, {ij: np.stack([x.blocks[ij] for x in xs])
                                     for ij in xs[0].blocks})
    got = mc.gl_hermitian_characteristic(stack)
    for t, x in enumerate(xs):
        want = _gl_characteristic_per_trial(x)
        assert sorted(got) == sorted(want)
        for ij, (e, h, f, res) in want.items():
            g = got[ij]
            for a, b in ((g.e[t], e), (g.h[t], h), (g.f[t], f)):
                assert a.tobytes() == b.tobytes()
            assert tuple(float(r[t]) for r in g.residuals) == res
            single = mc.gl_hermitian_characteristic(x)[ij]
            assert single.residuals == res and single.f.tobytes() == f.tobytes()
    assert all((np.array(g.residuals) < mc.DEFAULT_SL2_TOL).all() for g in got.values())


@pytest.mark.parametrize("trials", [1, 2, 31])
def test_gl_characteristic_trials_equal_the_per_trial_loop(trials):
    rng = np.random.default_rng(trials)
    rejected, worst_h = 0, 0.0
    for t in range(trials):
        x = mc.random_block_nilpotent(rng, (2, 3, 2) if t % 2 == 0 else (1, 4, 2, 1))
        res = [r for *_, r in _gl_characteristic_per_trial(x).values()]
        rejected += any(max(r) >= mc.DEFAULT_SL2_TOL for r in res)
        worst_h = max(worst_h, *(r[3] for r in res))
    assert mc.gl_characteristic_trials(np.random.default_rng(trials), trials) == (rejected, worst_h)


def test_block_nilpotent_takes_one_stack_axis():
    with pytest.raises(ValueError, match="expected"):
        mc.BlockNilpotent((1, 1), {(1, 2): np.zeros((2, 3, 1, 1))})
