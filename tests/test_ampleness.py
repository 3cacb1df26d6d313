import numpy as np
import pytest

from linalg_helpers import form_preserving
from parabolics import ampleness as am
from parabolics.cxlinalg import crandom, det_space, pf_space, symmetric_space
from parabolics.spinor import spin_module


def test_is_ample_examples():
    psp = pf_space()
    A = np.zeros((6, 2), dtype=complex)
    A[0, 0] = A[5, 0] = 1   # e12 + e34
    A[0, 1] = 1; A[5, 1] = -1  # e12 - e34
    assert am.is_ample(A, psp) == am.AMPLE_NONDEG
    B = np.zeros((6, 2), dtype=complex)
    B[0, 0] = B[5, 0] = 1   # e12 + e34
    B[1, 1] = 1             # e13
    assert am.is_ample(B, psp) == am.NOT_AMPLE
    assert am.is_ample(np.zeros((6, 2)), psp) != am.NOT_AMPLE
    iso = np.zeros((6, 1), dtype=complex); iso[1, 0] = 1
    assert am.is_ample(iso, psp) == am.AMPLE_ISOTROPIC


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
        cls = am.is_ample(M, space)
        for _ in range(3):
            h = form_preserving(space, rng)
            assert am.is_ample(h @ M, space) == cls


def test_spinor_is_ample():
    sm = spin_module(4)
    plus, minus = sm.half_space("+"), sm.half_space("-")
    s1 = sm.to_half(sm.vector(()), "+")
    s2 = sm.to_half(sm.vector((0, 1), (2, 3)), "+")
    assert am.is_ample(np.column_stack([s1, s2]), plus) == am.NOT_AMPLE
    assert am.is_ample(np.zeros((8, 2)), plus) != am.NOT_AMPLE
    rng = np.random.default_rng(8)
    assert am.is_ample(crandom(rng, 8, 3), minus) == am.AMPLE_NONDEG


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
        variety, dim = am._prop1_spaces(name)
        for _ in range(5):
            A = am._degenerate_line(variety, dim, rng)
            assert am.is_degenerate_line_map(A, variety)


@pytest.mark.parametrize("variant", am.VARIANTS)
def test_deform_verified_small_batch(variant):
    for seed in range(6):
        task = am.random_task(variant, seed)
        res = am.deform(task)
        assert res.verified, (variant, seed, res.detail)
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


def test_deform_search_exhausted_reported():
    task = am.random_task("4B", 1, max_restarts=0)
    res = am.deform(task)
    assert not res.verified and res.detail == "search exhausted"


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
    D = np.column_stack([am.wedge_vv4(w, B[:, 0]), am.wedge_vv4(w, B[:, 1])])
    assert am.ample(A + D, psp)

    res = am.deform(am.random_task("5C", 4))
    task = am.random_task("5C", 4)
    v, Bmat = task.inputs["v"], task.inputs["B"]
    W = np.column_stack([am.wedge_vv3(v, res.witness["A"][:, 0]),
                         am.wedge_vv3(v, res.witness["A"][:, 1])])
    s = np.linalg.svd(Bmat + W, compute_uv=False)
    assert s[1] > 1e-8 * s[0]


def test_nonample_generator_produces_not_ample():
    rng = np.random.default_rng(7)
    sm = spin_module(4)
    for space, k in [(symmetric_space(4), 3), (det_space(), 3), (pf_space(), 4),
                     (sm.half_space("+"), 3), (sm.half_space("-"), 2)]:
        for _ in range(5):
            cols = am._nonample_columns(space, k, rng)
            assert am.is_ample(cols, space) == am.NOT_AMPLE


def test_wedge_tables():
    e = np.eye(4)
    v12 = am.wedge_vv4(e[0], e[1])
    assert v12[am.PF2.index((0, 1))] == 1 and np.count_nonzero(v12) == 1
    assert np.allclose(am.wedge_vv4(e[1], e[0]), -v12)
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
