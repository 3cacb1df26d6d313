import numpy as np
import pytest

from linalg_helpers import form_preserving, spinor_vector
from parabolics import ampleness as am
from parabolics.cxlinalg import (DEFAULT_TOL, _solve_constraints, crandom, det_space, orth,
                                 pf_space, restriction_invariants, symmetric_space)
from parabolics.spinor import spin_module


def test_is_ample_examples():
    psp = pf_space()
    A = np.zeros((6, 2), dtype=complex)
    A[0, 0] = A[5, 0] = 1   # e12 + e34
    A[0, 1] = 1; A[5, 1] = -1  # e12 - e34
    assert am.ample(A, psp) and restriction_invariants(A, psp) == (2, 0)
    B = np.zeros((6, 2), dtype=complex)
    B[0, 0] = B[5, 0] = 1   # e12 + e34
    B[1, 1] = 1             # e13
    assert not am.ample(B, psp) and restriction_invariants(B, psp) == (2, 1)
    assert am.ample(np.zeros((6, 2)), psp)
    assert restriction_invariants(np.zeros((6, 2)), psp) == (0, 0)
    iso = np.zeros((6, 1), dtype=complex); iso[1, 0] = 1
    assert am.ample(iso, psp) and restriction_invariants(iso, psp) == (1, 1)


@pytest.mark.parametrize("space", [symmetric_space(4), det_space(), pf_space()])
def test_is_ample_invariant_under_structure_group(space):
    rng = np.random.default_rng(0)
    for trial in range(30):
        rank = int(rng.integers(1, min(4, space.dim)))
        radical = int(rng.integers(0, rank + 1))
        if radical > space.dim - rank:
            continue
        try:
            M = am.span_with_invariants(space, rank, radical, rng)
        except ValueError:
            continue
        invariants, ample = restriction_invariants(M, space), am.ample(M, space)
        for _ in range(3):
            h = form_preserving(space, rng)
            assert restriction_invariants(h @ M, space) == invariants
            assert am.ample(h @ M, space) == ample


def test_spinor_is_ample():
    sm = spin_module(4)
    plus, minus = sm.half_space("+"), sm.half_space("-")
    s1, s2 = (spinor_vector(sm, *subsets)[sm.even_indices]
              for subsets in [((),), ((0, 1), (2, 3))])
    pair = np.column_stack([s1, s2])
    assert not am.ample(pair, plus) and restriction_invariants(pair, plus) == (2, 1)
    assert am.ample(np.zeros((8, 2)), plus)
    assert restriction_invariants(np.zeros((8, 2)), plus) == (0, 0)
    generic = crandom(np.random.default_rng(8), 8, 3)
    assert am.ample(generic, minus) and restriction_invariants(generic, minus) == (3, 0)


def test_degenerate_line_map_quadric_examples():
    sp3 = symmetric_space(3)
    X = am.QuadricVariety(sp3)
    tangent = np.array([[1, 0], [0, 1], [0, 1j]], dtype=complex)
    assert am.is_degenerate_line_map(tangent, X)
    rng = np.random.default_rng(1)
    generic = crandom(rng, 3, 2)
    assert not am.is_degenerate_line_map(generic, X)
    rank1 = np.column_stack([[1, 0, 0], [2, 0, 0]]).astype(complex)
    assert not am.is_degenerate_line_map(rank1, X)
    with pytest.raises(ValueError):
        am.is_degenerate_line_map(np.zeros((3, 3)), X)
    with pytest.raises(ValueError):
        am.is_degenerate_line_map(tangent, "not a variety")


def test_degenerate_line_map_segre():
    X = am.SegreVariety(3)
    # span of a rank-1 matrix and a generic one meets the rank-1 locus once
    rng = np.random.default_rng(2)
    found = 0
    for _ in range(20):
        x = np.outer(crandom(rng, 2), crandom(rng, 3)).reshape(6)
        A = np.column_stack([x, crandom(rng, 6)])
        found += am.is_degenerate_line_map(A, X)
    assert found >= 15
    # generic lines miss the rank-1 locus entirely
    for _ in range(10):
        assert not am.is_degenerate_line_map(crandom(rng, 6, 2), X)
    # a pencil inside the rank-1 locus is not a single point
    u = crandom(rng, 2)
    inside = np.column_stack([np.outer(u, crandom(rng, 3)).reshape(6),
                              np.outer(u, crandom(rng, 3)).reshape(6)])
    assert not am.is_degenerate_line_map(inside, X)


def test_degenerate_line_generator_all_varieties():
    rng = np.random.default_rng(3)
    for name in ("quadric", "segre", "pf"):
        variety = am._prop1_spaces(name)
        for _ in range(5):
            A = am._degenerate_line(variety, rng)
            assert am.is_degenerate_line_map(A, variety)


@pytest.mark.parametrize("variant", am.VARIANTS)
def test_deform_verified_small_batch(variant):
    for seed in range(6):
        task = am.random_task(variant, seed)
        res = am.deform(task)
        assert res.verified, (variant, seed)
        assert res.restarts <= 1000


def _zero_like(witness):
    if isinstance(witness, (list, tuple)):
        return [_zero_like(x) for x in witness]
    return np.zeros_like(witness)


def _zero_witness_accepted(variant: str, seed: int) -> bool:
    """Whether the variant's predicate accepts its object deformed by the
    zero witness, which is the (non-ample or degenerate) input itself."""
    spec = am.SPECS[variant]
    task = am.random_task(variant, seed)
    c = am._context(variant, spec, task.inputs)
    zero = {k: _zero_like(v) for k, v in spec.draw(c, np.random.default_rng(seed)).items()}
    return spec.predicate(c, spec.deformed(c, zero))


# 5C is left out: its B is any element of L2C^3 x C^2, so B itself may
# already have rank 2 and the zero witness may pass.
_CONTROLLED = tuple(v for v in am.VARIANTS if v != "5C")


@pytest.mark.parametrize("variant", _CONTROLLED)
def test_predicate_rejects_zero_witness(variant):
    for seed in range(4):
        assert not _zero_witness_accepted(variant, seed), (variant, seed)


def test_zero_witness_control_fails_when_ample_always_holds(monkeypatch):
    # the planted defect "every tensor is ample" must not pass the control;
    # the Prop 1 variants (1A-1C) judge line maps, not ampleness
    monkeypatch.setattr(am, "ample", lambda *args, **kwargs: True)
    by_ampleness = [v for v in _CONTROLLED if not v.startswith("1")]
    assert len(by_ampleness) == 12
    assert all(_zero_witness_accepted(v, 0) for v in by_ampleness)


#: the perfbench deform workload's configurations: 7A at each width
_WORKLOAD_CONFIGS = [(v, None) for v in am.VARIANTS if v != "7A"] + [("7A", 2), ("7A", 3)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant, k", _WORKLOAD_CONFIGS)
def test_seeded_tasks_verify_without_a_floating_point_warning(variant, k):
    # cxlinalg.svd runs LAPACK with numpy's default errstate, not the one
    # numpy's wrapper sets: an overflow or invalid flag would raise here
    for seed in range(30):
        task = am.random_task_7a(k, seed) if k else am.random_task(variant, seed)
        assert am.deform(task).verified, (variant, k, seed)


def test_deform_7a_both_widths():
    for k in (2, 3):
        for seed in range(4):
            res = am.deform(am.random_task_7a(k, seed))
            assert res.verified


def test_deform_hypotheses_not_met():
    rng = np.random.default_rng(4)
    ample_A = crandom(rng, 4, 2)  # generic: nondegenerate restriction
    with pytest.raises(am.HypothesesNotMet):
        am.deform(am.DeformationTask("4A", {"A": ample_A, "B": np.ones((2, 2))}))
    bad = am.random_task("4A", 0)
    with pytest.raises(am.HypothesesNotMet):
        am.deform(am.DeformationTask("4A", {"A": bad.inputs["A"],
                                            "B": np.zeros((2, 2))}))
    with pytest.raises(am.HypothesesNotMet):
        am.deform(am.DeformationTask("5C", {"v": np.zeros(3), "B": np.zeros((3, 2))}))
    with pytest.raises(ValueError):
        am.deform(am.DeformationTask("9Z", {}))


def test_random_task_refuses_an_unknown_variant():
    with pytest.raises(ValueError) as exc:
        am.random_task("9Z", 0)
    assert str(exc.value) == "unknown variant '9Z'"


def test_nonample_columns_redraw_a_rank_deficient_mix(monkeypatch):
    # the first mix drawn is zero, below MIX_RANK_TOL: the loop draws again
    draws = []

    def zero_first(rng, *shape):
        draws.append(shape)
        return np.zeros(shape, dtype=complex) if len(draws) == 1 else crandom(rng, *shape)

    monkeypatch.setattr(am, "crandom", zero_first)
    space = symmetric_space(4)
    cols = am._nonample_columns(space, 3, np.random.default_rng(7))
    assert len(draws) == 2 and draws[0] == draws[1]
    assert np.linalg.matrix_rank(cols) > 0 and not am.ample(cols, space)


def test_deform_search_exhausted_reported(monkeypatch):
    monkeypatch.setattr(am, "MAX_RESTARTS", 0)
    res = am.deform(am.random_task("4B", 1))
    assert (res.verified, res.restarts, res.witness) == (False, am.MAX_RESTARTS, {})


def test_canonical_6d_first_attempt_uses_printed_witness():
    A, C = am._canonical_6d()
    rng = np.random.default_rng(5)
    for seed in range(5):
        B = am._nonample_columns(pf_space(), 4, np.random.default_rng(50 + seed))
        res = am.deform(am.DeformationTask("6D", {"A": A, "B": B}, seed=seed))
        assert res.verified and res.restarts == 0
        lam = res.witness["C"][2, 1]
        assert lam != 0 and np.allclose(res.witness["C"], lam * C)


def test_1c_in_image_witness_cancels_one_column():
    # v = A c lies in the image of A: the deterministic witness cancels one
    # column of A against v, so no random restart is needed
    for seed in range(30):
        task = am.random_task("1C", seed)
        c = crandom(np.random.default_rng(130 + seed), 2)
        inputs = dict(task.inputs, v=task.inputs["A"] @ c)
        res = am.deform(am.DeformationTask("1C", inputs, seed=seed))
        assert res.verified and res.restarts == 0, seed
        assert np.count_nonzero(res.witness["f"]) == 1


def test_7c_isotropic_spinor_witness():
    # an isotropic s makes rho(V)s maximal isotropic; the deterministic
    # witness then pushes the columns of A into an isotropic span
    plus = spin_module(4).half_space("+")
    rng = np.random.default_rng(140)
    for seed in range(10):
        a, b = crandom(rng, 8), crandom(rng, 8)
        qa, qb, qab = plus.omega(a, a), plus.omega(b, b), plus.omega(a, b)
        s = a + ((-qab + np.sqrt(qab ** 2 - qa * qb)) / qb) * b
        assert abs(plus.omega(s, s)) < 1e-10 * np.linalg.norm(s) ** 2
        A = am.random_task("7C", seed).inputs["A"]
        res = am.deform(am.DeformationTask("7C", {"A": A, "s": s}, seed=seed))
        assert res.verified and res.restarts == 0, seed


def test_canonical_5c_first_attempt():
    v = np.array([1.0, 0, 0], dtype=complex)
    rng = np.random.default_rng(6)
    for seed in range(5):
        B = crandom(np.random.default_rng(60 + seed), 3, 2)
        res = am.deform(am.DeformationTask("5C", {"v": v, "B": B}, seed=seed))
        assert res.verified and res.restarts == 0
        # the witness columns lie in the plane spanned by e2 and e3
        assert np.allclose(res.witness["A"][0, :], 0)


def test_canonical_7b_first_attempt_all_three_forms():
    sm = spin_module(4)
    for idx, (A, _) in enumerate(am._canonical_7b_data()):
        for seed in range(4):
            B = am._nonample_columns(sm.half_space("-"), 3,
                                     np.random.default_rng(70 + seed))
            res = am.deform(am.DeformationTask("7B", {"A": A, "B": B}, seed=seed))
            assert res.verified and res.restarts == 0, (idx, seed)


def test_canonical_6a_first_attempt():
    A, _ = am._canonical_6a()
    for seed in range(3):
        B = am._nonample_columns(det_space(), 4, np.random.default_rng(80 + seed))
        res = am.deform(am.DeformationTask("6A", {"A": A, "B": B}, seed=seed))
        assert res.verified and res.restarts == 0


def test_witnesses_verify_under_independent_recomputation():
    # recompute the deformed object from the returned witness and re-apply
    # the predicate outside of deform()
    psp = pf_space()
    res = am.deform(am.random_task("6C", 3))
    task = am.random_task("6C", 3)
    A, w = task.inputs["A"], task.inputs["w"]
    B = res.witness["B"]
    D = np.column_stack([am.wedge_vv(w, B[:, 0]), am.wedge_vv(w, B[:, 1])])
    assert am.ample(A + D, psp)

    res = am.deform(am.random_task("5C", 4))
    task = am.random_task("5C", 4)
    v, Bmat = task.inputs["v"], task.inputs["B"]
    W = np.column_stack([am.wedge_vv(v, res.witness["A"][:, 0]),
                         am.wedge_vv(v, res.witness["A"][:, 1])])
    s = np.linalg.svd(Bmat + W, compute_uv=False)
    assert s[1] > 1e-8 * s[0]


def test_nonample_generator_produces_not_ample():
    rng = np.random.default_rng(7)
    sm = spin_module(4)
    for space, k in [(symmetric_space(4), 3), (det_space(), 3), (pf_space(), 4),
                     (sm.half_space("+"), 3), (sm.half_space("-"), 2)]:
        for _ in range(5):
            cols = am._nonample_columns(space, k, rng)
            assert not am.ample(cols, space)


def test_wedge_tables():
    e = np.eye(4)
    v12 = am.wedge_vv(e[0], e[1])
    assert v12[am.PF2.index((0, 1))] == 1 and np.count_nonzero(v12) == 1
    assert np.allclose(am.wedge_vv(e[1], e[0]), -v12)
    # in C^3 the pairs are L2C3's: e1 ^ e3 is its second coordinate
    assert am.wedge_vv(e[0, :3], e[2, :3]).tolist() == [0, 1, 0]
    # (e1^e2) ^ e3 = e1^e2^e3
    b = np.zeros(6); b[am.PF2.index((0, 1))] = 1
    t = am.wedge_bv4(b, e[2])
    assert t[am.PF3.index((0, 1, 2))] == 1 and np.count_nonzero(t) == 1
    # (e1^e3) ^ e2 = -e1^e2^e3
    b2 = np.zeros(6); b2[am.PF2.index((0, 2))] = 1
    t2 = am.wedge_bv4(b2, e[1])
    assert t2[am.PF3.index((0, 1, 2))] == -1


@pytest.mark.parametrize("k", [0, 1, -2, 4])
def test_random_task_7a_rejects_k_before_drawing(k):
    with pytest.raises(am.HypothesesNotMet, match="k must be 2 or 3"):
        am.random_task_7a(k, 0)


# --------------------------------------- seeded draws against the oracles


def _restriction_invariants_orth(S, space):
    """Reference: the restriction invariants through orth, with their own SVD."""
    S = np.asarray(S, dtype=complex)
    B = orth(S[:, None] if S.ndim == 1 else S)
    r = B.shape[1]
    if r == 0:
        return 0, 0
    s = np.linalg.svd(B.T @ space.gram @ B, compute_uv=False)
    return r, r - int(np.sum(s > DEFAULT_TOL * max(space.norm, 1.0)))


def _isotropic_vector_in_loop(space, basis, rng):
    """Reference: isotropic_vector_in as written with three norms of v."""
    k = basis.shape[1]
    if k == 0:
        return None
    if not space.symmetric:
        return basis @ crandom(rng, k)
    for _ in range(32):
        a = basis @ crandom(rng, k)
        b = basis @ crandom(rng, k)
        qa, qb = space.quadratic(a), space.quadratic(b)
        qab = space.omega(a, b)
        if abs(qb) > DEFAULT_TOL:
            disc = np.sqrt(qab * qab - qa * qb)
            t = (-qab + disc) / qb
            v = a + t * b
        elif abs(qab) > DEFAULT_TOL:
            v = a - qa / (2 * qab) * b
        else:
            v = b
        if np.linalg.norm(v) > DEFAULT_TOL and abs(space.quadratic(v / np.linalg.norm(v))) < 1e-8:
            return v / np.linalg.norm(v)
    return None


def _span_with_invariants_two_svds(space, rank, radical, rng):
    """Reference: span_with_invariants as written with matrix_rank and then
    restriction_invariants, each factoring the columns."""
    n = space.dim
    step = 1 if space.symmetric else 2
    for _ in range(64):
        cols = []
        attempts = 0
        while len(cols) < rank - radical and attempts < 200:
            attempts += 1
            vs = [crandom(rng, n) for _ in range(step)]
            trial = cols + [v / np.linalg.norm(v) for v in vs]
            M = np.column_stack(trial)
            G = M.T @ space.gram @ M
            s = np.linalg.svd(G, compute_uv=False)
            if s[-1] > 1e-6:
                cols = trial
        if len(cols) < rank - radical:
            continue
        ok = True
        for _ in range(radical):
            M = np.column_stack(cols) if cols else np.zeros((n, 0))
            C = (space.gram @ M).T if M.shape[1] else np.zeros((0, n), dtype=complex)
            C = np.vstack([C, (space.gram.T @ M).T]) if M.shape[1] else C
            free = _solve_constraints(C, n)
            v = _isotropic_vector_in_loop(space, free, rng)
            if v is None:
                ok = False
                break
            cols.append(v)
        if not ok:
            continue
        M = np.column_stack(cols)
        if np.linalg.matrix_rank(M, tol=1e-8) != rank:
            continue
        if _restriction_invariants_orth(M, space) == (rank, radical):
            return M
    raise RuntimeError(f"could not realize (rank, radical) = ({rank}, {radical})")


def _nonample_columns_matrix_rank(space, k, rng):
    """Reference: _nonample_columns as written with matrix_rank."""
    patterns = [(r, j) for r in range(2, min(k, space.dim - 1) + 1) for j in range(1, r)
                if j <= space.dim - r and (space.symmetric or (r - j) % 2 == 0)]
    r, j = patterns[rng.integers(len(patterns))]
    M = _span_with_invariants_two_svds(space, r, j, rng)
    mix = crandom(rng, r, k)
    while np.linalg.matrix_rank(mix, tol=1e-8) < min(r, k):
        mix = crandom(rng, r, k)
    return M @ mix


def _same_bits(x, y) -> bool:
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_bits(x[key], y[key]) for key in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(map(_same_bits, x, y))
    if isinstance(x, np.ndarray):
        return (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()
    return type(x) is type(y) and x == y


_DRAW_CONFIGS = [(v, None) for v in am.VARIANTS] + [("7A", 2), ("7A", 3)]


def _seeded_runs(variant, k, seeds):
    runs = []
    for seed in seeds:
        task = am.random_task_7a(k, seed) if k else am.random_task(variant, seed)
        res = am.deform(task)
        runs.append((task.inputs, res.witness, res.verified, res.restarts))
    return runs


@pytest.mark.parametrize("variant, k", _DRAW_CONFIGS)
def test_seeded_draws_and_witnesses_equal_the_reference(variant, k, monkeypatch):
    got = _seeded_runs(variant, k, range(40))
    monkeypatch.setattr(am, "_nonample_columns", _nonample_columns_matrix_rank)
    monkeypatch.setattr(am, "isotropic_vector_in", _isotropic_vector_in_loop)
    monkeypatch.setattr(am, "restriction_invariants", _restriction_invariants_orth)
    want = _seeded_runs(variant, k, range(40))
    for seed, (g, w) in enumerate(zip(got, want)):
        assert _same_bits(g, w), (variant, k, seed)


# ------------------------------------------------- canonical witnesses


@pytest.mark.parametrize("variant, canonical, key", [
    ("6A", lambda: [am._canonical_6a()], "C"),
    ("6D", lambda: [am._canonical_6d()], "C"),
    ("7B", am._canonical_7b_data, "x"),
])
def test_mutated_canonical_witness_does_not_change_the_next_result(variant, canonical, key):
    for A, X in canonical():
        assert not A.flags.writeable and not X.flags.writeable
    A, X = canonical()[-1]
    task = am.random_task(variant, 0)
    task = am.DeformationTask(variant, dict(task.inputs, A=A.copy()), seed=0)
    first = am.deform(task)
    assert first.restarts == 0 and np.array_equal(first.witness[key], X)
    first.witness[key][...] = 7  # the caller's copy
    second = am.deform(task)
    assert second.restarts == 0 and np.array_equal(second.witness[key], X)
    assert not np.shares_memory(first.witness[key], second.witness[key])


@pytest.mark.parametrize("delta", [0.0, 5e-13, 2e-12, 1e-6, 3e-5, 1e-3, np.nan, np.inf, -np.inf])
def test_printed_witness_match_is_allclose(delta):
    # the printed 6A A perturbed at one zero entry and at one unit entry
    A = am._canonical_6a()[0]
    witnesses = am.SPECS["6A"].witnesses
    for entry in [(1, 0), (0, 0)]:
        given = A.copy()
        given[entry] += delta
        matched = witnesses({"A": given}, None) != []
        assert matched == np.allclose(given, A, atol=1e-12), (delta, entry)


# ------------------------------------------------------ Prop 1 geometry


def _projective_roots_spy(monkeypatch):
    calls = []
    real = am._projective_roots

    def spy(*args):
        calls.append((args[:3], real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(am, "_projective_roots", spy)
    return calls


def test_projective_roots_special_cases():
    assert am.LINE_MAP_TOL == 1e-8
    assert am._projective_roots(0, 0, 0) is None
    assert am._projective_roots(1e-9, 0, 0, 1.0) is None
    assert am._projective_roots(1e-9, 0, 0, 0.01) == [(0.0, 1.0)]
    assert am._projective_roots(0, 2, 3) == [(1.0, 0.0), (-1.5, 1.0)]
    assert am._projective_roots(0, 0, 3) == [(1.0, 0.0)]


def test_line_inside_the_pf_quadric_is_not_degenerate(monkeypatch):
    # span(e12, e13) is isotropic for Pf: the restriction is identically zero
    calls = _projective_roots_spy(monkeypatch)
    A = 2 * np.eye(6, dtype=complex)[:, :2]
    assert not am.is_degenerate_line_map(A, am.QuadricVariety(pf_space()))
    assert calls == [((0j, 0j, 0j), None)]


@pytest.mark.parametrize("second, degenerate", [(5, False), ([2, 3], True)])
def test_line_through_a_root_at_infinity(second, degenerate, monkeypatch):
    # the first column e12 lies on the Pf quadric, so c0 = 0: with e34 the
    # line is a secant (c1 != 0, two points), with e14 + e23 a tangent
    calls = _projective_roots_spy(monkeypatch)
    A = np.zeros((6, 2), dtype=complex)
    A[0, 0] = 2
    A[second, 1] = 1
    assert am.is_degenerate_line_map(A, am.QuadricVariety(pf_space())) == degenerate
    ((c0, c1, _), roots), = calls
    assert c0 == 0 and (c1 != 0) == (not degenerate)
    assert roots[0] == (1.0, 0.0) and len(roots) == 1 + (not degenerate)


def test_secant_with_a_root_at_infinity_beyond_the_form_norm(monkeypatch):
    # a is isotropic up to eps e3 and b is isotropic: c0 = eps^2 = 1.5e-8 is
    # zero beside c1 = 2 but not beside the form's norm 1, and the line is a
    # secant through (1 : 0) and (0 : 1)
    calls = _projective_roots_spy(monkeypatch)
    a = np.array([1, 1j, 0, 0]) / np.sqrt(2) + np.sqrt(1.5e-8) * np.eye(4)[2]
    b = np.array([1, -1j, 0, 0]) / np.sqrt(2)
    assert not am.is_degenerate_line_map(np.column_stack([2 * a, b]),
                                         am.QuadricVariety(symmetric_space(4)))
    ((c0, c1, c2), roots), = calls
    assert 1e-8 < abs(c0) < 2e-8 and abs(abs(c1) - 2) < 1e-7 and abs(c2) < 1e-15
    assert len(roots) == 2 and roots[0] == (1.0, 0.0)

def test_segre_line_of_rank_one_matrices_is_not_degenerate(monkeypatch):
    # every matrix of the pencil s E11 + t E12 has a zero second row, so all
    # its 2x2 minors vanish identically and the largest has no roots
    calls = _projective_roots_spy(monkeypatch)
    A = np.eye(6, dtype=complex)[:, :2]
    assert not am.is_degenerate_line_map(A, am.SegreVariety(3))
    assert calls == [((0j, 0j, 0j), None)]


def test_line_inside_the_quadric_with_rounded_coefficients(monkeypatch):
    # span(e1 + i e2, e3 + i e4) is isotropic for the symmetric form, but the
    # SVD basis gives q(a) = -2.8e-16: zero relative to the form's norm
    calls = _projective_roots_spy(monkeypatch)
    A = np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])
    assert not am.is_degenerate_line_map(A, am.QuadricVariety(symmetric_space(4)))
    ((c0, c1, c2), roots), = calls
    assert 0 < max(abs(c0), abs(c1), abs(c2)) < 1e-15 and roots is None


def test_segre_rank_one_cut_reads_line_map_tol(monkeypatch):
    # The pencil s E11 + t (E22 + d E13) has the rank-one point (1 : 0) and,
    # at (0 : 1), a matrix with singular-value ratio d: one point of the
    # Segre variety at the default cut, two once the cut passes d.
    d = 1e-5
    x = np.outer([1, 0], [1, 0, 0])
    y = np.outer([0, 1], [0, 1, 0]) + d * np.outer([1, 0], [0, 0, 1])
    A = np.column_stack([x.reshape(6), y.reshape(6)]).astype(complex)
    assert am.is_degenerate_line_map(A, am.SegreVariety(3))
    monkeypatch.setattr(am, "LINE_MAP_TOL", 1e-3)
    assert not am.is_degenerate_line_map(A, am.SegreVariety(3))


@pytest.mark.parametrize("d, off", [(1e-12, False), (1e-8, True)])
def test_segre_cone_cut_reads_the_minors(d, off):
    # E11 + d E22 has the one nonzero minor d and |v|^2 = 1 + d^2: it lies on
    # the cone over the Segre variety when d is at most 1e-10
    v = (np.outer([1, 0], [1, 0, 0]) + d * np.outer([0, 1], [0, 1, 0])).reshape(6)
    assert am._off_cone(am.SegreVariety(3), v.astype(complex)) == off


def test_segre_pencils_inside_the_rank_one_locus_are_not_degenerate():
    # u (x) (s w1 + t w2) is rank one for every (s : t); its minors in the SVD
    # basis are rounding, not a quadratic with one double root
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(500):
        u = crandom(rng, 2)
        A = np.column_stack([np.outer(u, crandom(rng, 3)).reshape(6),
                             np.outer(u, crandom(rng, 3)).reshape(6)])
        found += am.is_degenerate_line_map(A, am.SegreVariety(3))
    assert found == 0
