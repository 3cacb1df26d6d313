"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test prints its verdict and asserts it.
"""

import time

import numpy as np

from parabolics import ampleness, classify, cxlinalg, mpchar, walkdiag
from parabolics.cxlinalg import crandom
from parabolics.grading import compute_grading, diagram
from parabolics.rootsys import POSITIVE_ROOT_COUNTS, ROOT_COUNT_TYPES, build_root_system
from parabolics.spinor import rho_square_defect, spin_module


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nacceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_root_counts():
    build_root_system.cache_clear()
    t0 = time.perf_counter()
    bad = []
    for kind, rank in ROOT_COUNT_TYPES:
        rs = build_root_system(kind, rank)
        if len(rs.positive_roots) != POSITIVE_ROOT_COUNTS[kind](rank):
            bad.append((kind, rank))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (root counts)", not bad and elapsed < 1.0,
            f"{len(ROOT_COUNT_TYPES)} types, {elapsed:.3f}s, mismatches {bad}")


def test_criterion_2_grading_partitions_and_irreducibility():
    t0 = time.perf_counter()
    from itertools import combinations

    checked = 0
    for name in ("E7", "E8"):
        rs = build_root_system(name[0], int(name[1]))
        vertices = range(1, rs.rank + 1)
        for k in range(rs.rank):
            for black in combinations(vertices, k):
                g = compute_grading(diagram(name, black))
                total = sum(len(r) for r in g.components.values()) + len(g.zero_component)
                assert total == len(rs.roots), (name, black)
                for w in g.positive_weights:
                    assert g.is_irreducible_component(w), (name, black, w)
                checked += 1
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (grading partitions)", checked == 127 + 255 and elapsed < 30.0,
            f"{checked} colourings, every component irreducible, {elapsed:.2f}s")


def test_criterion_3_case_reproduction():
    t0 = time.perf_counter()
    reports = walkdiag.verify_all_cases()
    elapsed = time.perf_counter() - t0
    failed = [cid for cid, r in reports.items() if not r.passed]
    ok = not failed and len(reports) == 15 and elapsed < 10.0
    _report("criterion 3 (printed cases)", ok,
            f"15 cases, failures {failed}, {elapsed:.2f}s")


def test_criterion_4_table_check():
    t0 = time.perf_counter()
    report = classify.check_table()
    elapsed = time.perf_counter() - t0
    ok = report.passed and len(report.lines) == 59 and elapsed < 5.0
    _report("criterion 4 (table)", ok,
            f"59 entries, failures {report.failures()}, {elapsed:.2f}s")


def test_criterion_5_penrose_suite():
    rng = np.random.default_rng(20240501)
    worst = [0.0, 0.0, 0.0, 0.0]
    worst_inv = 0.0
    inv_checked = 0
    for trial in range(1000):
        m, n = rng.integers(1, 9, size=2)
        k = min(m, n)
        U, _ = np.linalg.qr(crandom(rng, m, m))
        V, _ = np.linalg.qr(crandom(rng, n, n))
        cond = 10.0 ** rng.uniform(0, 6)
        s = np.geomspace(1.0, 1.0 / cond, k)
        if trial % 5 == 0 and k > 1:
            s[-1] = 0.0  # exercise the rank cut as well
        F = (U[:, :k] * s) @ V[:, :k].conj().T
        P = cxlinalg.mp_inverse(F)
        worst = [max(w, r) for w, r in zip(worst, cxlinalg.penrose_residuals(F, P))]
        if m == n and s[-1] > 0:
            inv = np.linalg.inv(F)
            worst_inv = max(worst_inv, np.linalg.norm(P - inv) / np.linalg.norm(inv))
            inv_checked += 1
    ok = max(worst) < 1e-10 and worst_inv < 1e-8 and inv_checked > 50
    _report("criterion 5 (penrose)", ok,
            f"1000 trials, residuals {[f'{w:.1e}' for w in worst]}, "
            f"inverse agreement {worst_inv:.1e} over {inv_checked} square cases")


def test_criterion_6_gl_characteristic():
    rejected, worst_h = mpchar.gl_characteristic_trials(np.random.default_rng(6), 100)
    ok = rejected == 0 and worst_h < 1e-10
    _report("criterion 6 (gl characteristic)", ok,
            f"100 block nilpotents, rejected {rejected}, worst h defect {worst_h:.1e}")


def test_criterion_7_so_sp_lemma():
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_split = 0.0
    for space in (cxlinalg.symmetric_space(6), cxlinalg.symplectic_space(6)):
        for _ in range(200):
            A = crandom(rng, 6, 4)
            sol = mpchar.lemma_B_from_A(A, space)
            worst = max(worst, max(mpchar.lemma_residuals(sol, space).values()))
            AB = A @ sol.B
            for W, coeff in ((sol.W0, 1), (sol.W1, 2), (sol.W2, 0), (sol.W3, 0)):
                if W.shape[1]:
                    worst_split = max(worst_split,
                                      float(np.linalg.norm(AB @ W - coeff * W)))
    ok = worst < 1e-9 and worst_split < 1e-9
    _report("criterion 7 (characteristic equations)", ok,
            f"200 trials per form kind, worst residual {worst:.1e}, "
            f"worst splitting action defect {worst_split:.1e}")


def test_criterion_8_spinor_identities():
    sm = spin_module(4)
    worst = rho_square_defect(np.random.default_rng(8), sm, 100)
    G = sm.form_gram
    ev, od = list(sm.even_indices), list(sm.odd_indices)
    orth_exact = not G[np.ix_(ev, od)].any() and not G[np.ix_(od, ev)].any()
    G4 = sm.half_space("+").gram
    G2 = spin_module(2).half_space("+").gram
    sym_ok = np.array_equal(G4, G4.T) and np.array_equal(G2, -G2.T)
    dims_ok = len(ev) == 8 and len(od) == 8
    ok = worst < 1e-10 and orth_exact and sym_ok and dims_ok
    _report("criterion 8 (spinor identities)", ok,
            f"rho^2 defect {worst:.1e}, halves orthogonal {orth_exact}, "
            f"symmetry types {sym_ok}, dim 8 {dims_ok}")


def test_criterion_9_witt_invariants():
    rng = np.random.default_rng(9)
    space = cxlinalg.symmetric_space(3)
    allowed = {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)}
    realized = set()
    realized.add(cxlinalg.restriction_invariants(np.zeros((3, 2)), space))
    for (i, j) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        M = cxlinalg.span_with_invariants(space, i, j, rng)
        cols = M if M.shape[1] == 2 else M @ crandom(rng, M.shape[1], 2)
        realized.add(cxlinalg.restriction_invariants(cols, space))
    for _ in range(200):
        realized.add(cxlinalg.restriction_invariants(crandom(rng, 3, 2), space))
    ok = realized == allowed
    _report("criterion 9 (witt invariants)", ok,
            f"realized pairs {sorted(realized)}")


def test_criterion_10_deformation_suites():
    assert ampleness.MAX_RESTARTS == 1000  # each search's budget of random restarts
    t0 = time.perf_counter()
    configs = [(v, None) for v in ampleness.VARIANTS if v != "7A"]
    configs += [("7A", 2), ("7A", 3)]
    failures = []
    max_restarts_seen = 0
    for variant, k in configs:
        for seed in range(100):
            if variant == "7A":
                task = ampleness.random_task_7a(k, seed)
            else:
                task = ampleness.random_task(variant, seed)
            res = ampleness.deform(task)
            if not res.verified:
                failures.append((variant, k, seed))
            max_restarts_seen = max(max_restarts_seen, res.restarts)

    # the printed explicit constructions succeed without any random restart
    canonical_ok = True
    A6, _ = ampleness._canonical_6d()
    from parabolics.cxlinalg import pf_space
    for seed in range(10):
        B = ampleness._nonample_columns(pf_space(), 4, np.random.default_rng(900 + seed))
        r = ampleness.deform(ampleness.DeformationTask("6D", {"A": A6, "B": B}, seed=seed))
        canonical_ok &= r.verified and r.restarts == 0
    for seed in range(10):
        B = crandom(np.random.default_rng(910 + seed), 3, 2)
        r = ampleness.deform(ampleness.DeformationTask(
            "5C", {"v": np.array([1.0, 0, 0], dtype=complex), "B": B}, seed=seed))
        canonical_ok &= r.verified and r.restarts == 0
    sm = spin_module(4)
    for Acan, _ in ampleness._canonical_7b_data():
        for seed in range(5):
            B = ampleness._nonample_columns(sm.half_space("-"), 3,
                                            np.random.default_rng(920 + seed))
            r = ampleness.deform(ampleness.DeformationTask("7B", {"A": Acan, "B": B},
                                                           seed=seed))
            canonical_ok &= r.verified and r.restarts == 0
    elapsed = time.perf_counter() - t0
    ok = not failures and canonical_ok
    _report("criterion 10 (deformations)", ok,
            f"17 configs x 100 trials verified, max restarts {max_restarts_seen}, "
            f"canonical first-attempt {canonical_ok}, {elapsed:.1f}s")
