"""Test helpers: the det and pf forms with the polarisation loop that gives
their Grams, random elements of the structure group of a bilinear space,
the one-matrix Moore-Penrose inverse that stacked inverses must match, the
flag form of an orthogonal/symplectic grading with its g_lambda and
g_-lambda embeddings, spinors named by basis subsets, a spin module with
one generator planted wrong, a spy on root-sum table reads and the seeded
draws of span_with_invariants as written with numpy's wrappers, which the
rewritten draws must equal byte for byte."""

import numpy as np

from parabolics.cxlinalg import (DEFAULT_TOL, ISOTROPIC_TOL, NONDEGENERATE_TOL,
                                 SPAN_RANK_TOL, BilinearSpace, _span_invariants, crandom, svd,
                                 symmetric_space, symplectic_space)
from parabolics.rootsys import RootSystem


def mp_inverse_2d(F) -> np.ndarray:
    """The one-matrix Moore-Penrose inverse as written before stacks."""
    F = np.asarray(F, dtype=complex)
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[1], F.shape[0]), dtype=complex)
    keep = s > DEFAULT_TOL * s[0]
    return (Vh[keep].conj().T / s[keep]) @ U[:, keep].conj().T


def gram_from_quadratic(q, dim: int) -> np.ndarray:
    """The Gram of the quadratic form q by polarisation on basis vectors."""
    basis = np.eye(dim, dtype=complex)
    gram = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            gram[i, j] = (q(basis[i] + basis[j]) - q(basis[i]) - q(basis[j])) / 2
    return gram


def det_value(x) -> complex:
    """det of x in C^2 (x) C^2, coordinates in row-major matrix order."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (4,):
        raise ValueError("det form lives on C^2 (x) C^2 = C^4")
    return x[0] * x[3] - x[1] * x[2]


def pf_value(x) -> complex:
    """Pf of x in Lambda^2 C^4: half the e1^e2^e3^e4 coefficient of x^x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (6,):
        raise ValueError("pf form lives on Lambda^2 C^4 = C^6")
    return x[0] * x[5] - x[1] * x[4] + x[2] * x[3]


def expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core."""
    X = np.asarray(X, dtype=complex)
    k = max(0, int(np.ceil(np.log2(max(np.linalg.norm(X, 1), 1e-300)))) + 1)
    Y = X / (2.0 ** k)
    E = np.eye(X.shape[0], dtype=complex)
    term = np.eye(X.shape[0], dtype=complex)
    for i in range(1, 24):
        term = term @ Y / i
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def form_preserving(space: BilinearSpace, rng: np.random.Generator,
                    scale: float = 0.5) -> np.ndarray:
    """A random invertible h with h^T gram h = gram (exp of a form-skew map)."""
    n = space.dim
    S = crandom(rng, n, n)
    S = (S - S.T) / 2 if space.symmetric else (S + S.T) / 2
    X = np.linalg.solve(space.gram, scale * S)
    return expm(X)


def flag_space(u: int, w: int, kind: str) -> BilinearSpace:
    """The form on V = U+ + U- + W (dimensions u, u, w, in that order) with
    omega(u_i^+, u_i^-) = 1 and the identity ("symmetric") or the standard
    symplectic Gram ("skew") on W."""
    symmetric = kind == "symmetric"
    gram = np.zeros((2 * u + w, 2 * u + w), dtype=complex)
    gram[:u, u: 2 * u] = np.eye(u)
    gram[u: 2 * u, :u] = np.eye(u) if symmetric else -np.eye(u)
    gram[2 * u:, 2 * u:] = (symmetric_space(w) if symmetric else symplectic_space(w)).gram
    return BilinearSpace(f"flag-{kind}", 2 * u + w, gram)


def embed_e_lambda(A, space: BilinearSpace) -> np.ndarray:
    """A: U- -> W extended to g_lambda of the flag space by the block on
    W -> U+ that makes it omega-skew."""
    A = np.asarray(A, dtype=complex)
    u = A.shape[1]
    M = np.zeros((space.dim, space.dim), dtype=complex)
    M[2 * u:, u: 2 * u] = A
    M[:u, 2 * u:] = -A.T @ space.gram[2 * u:, 2 * u:].T
    return M


def embed_f_lambda(B, space: BilinearSpace) -> np.ndarray:
    """B: W -> U- extended to g_-lambda of the flag space by the block on
    U+ -> W that makes it omega-skew.  The signs make a pair (A, B) solving
    the characteristic equations embed, with embed_e_lambda, to an sl2
    triple; the equations fix the pair only up to a common sign."""
    B = np.asarray(B, dtype=complex)
    u = B.shape[0]
    M = np.zeros((space.dim, space.dim), dtype=complex)
    M[u: 2 * u, 2 * u:] = B
    sign = -1.0 if space.symmetric else 1.0
    M[2 * u:, :u] = sign * np.linalg.solve(space.gram[2 * u:, 2 * u:], B.T)
    return M


def spinor_vector(sm, *subsets) -> np.ndarray:
    """The sum of the basis vectors e_s of Lambda* U over the given subsets,
    each a sorted tuple as in sm.basis."""
    v = np.zeros(sm.dim, dtype=complex)
    for s in subsets:
        v[sm.basis.index(s)] += 1
    return v


def flip_generator(sm, a: int):
    """sm, a module no other caller holds, with every sign of rho(e_a)
    flipped in its scatter table: a planted fault that rho and rho_half
    both read."""
    flat, gen, sign = sm._rho
    vars(sm)["_rho"] = (flat, gen, np.where(gen == a, -sign, sign))
    return sm


def sum_table_reads(monkeypatch) -> list[str]:
    """The names of the root systems whose root-sum table is built or read
    until monkeypatch is undone, one per read.  Every read goes through
    RootSystem._sum_table, which this puts behind a recording property; a
    table already held on a system is still seen."""
    held, reads = vars(RootSystem)["_sum_table"], []

    def read(rs):
        reads.append(rs.name)
        return held.__get__(rs, RootSystem)

    monkeypatch.setattr(RootSystem, "_sum_table", property(read))
    return reads


# ------------------- the seeded draws as written with numpy's wrappers


def solve_constraints_masked(C: np.ndarray, dim: int) -> np.ndarray:
    """_solve_constraints as written with a boolean null mask."""
    if not C.any():
        return np.eye(dim, dtype=complex)
    _, s, Vh = svd(C)
    null_mask = np.zeros(dim, dtype=bool)
    null_mask[: len(s)] = s <= DEFAULT_TOL * s[0]
    null_mask[len(s):] = True
    return Vh.conj().T[:, null_mask]


def isotropic_vector_in_wrapped(space: BilinearSpace, basis: np.ndarray,
                                rng: np.random.Generator) -> np.ndarray | None:
    """isotropic_vector_in as written with space.quadratic and np.linalg.norm."""
    k = basis.shape[1]
    if k == 0:
        return None
    if not space.symmetric:
        return basis @ crandom(rng, k)
    for _ in range(32):
        a = basis @ crandom(rng, k)
        b = basis @ crandom(rng, k)
        aG = a @ space.gram
        qa, qb, qab = complex(aG @ a), space.quadratic(b), complex(aG @ b)
        if abs(qb) > DEFAULT_TOL:
            disc = np.sqrt(qab * qab - qa * qb)
            t = (-qab + disc) / qb
            v = a + t * b
        elif abs(qab) > DEFAULT_TOL:
            v = a - qa / (2 * qab) * b
        else:
            v = b
        norm = np.linalg.norm(v)
        if norm > DEFAULT_TOL and abs(space.quadratic(u := v / norm)) < ISOTROPIC_TOL:
            return u
    return None


def span_with_invariants_stacked(space: BilinearSpace, rank: int, radical: int,
                                 rng: np.random.Generator) -> np.ndarray:
    """span_with_invariants' draws as written with np.linalg.norm, column_stack
    and vstack, its radical drawn through the two functions above (the checks
    of rank and radical, which draw nothing, are left out)."""
    n = space.dim
    if rank == 0:
        return np.zeros((n, 0), dtype=complex)
    step = 1 if space.symmetric else 2
    for _ in range(64):
        cols: list[np.ndarray] = []
        attempts = 0
        while len(cols) < rank - radical and attempts < 200:
            attempts += 1
            vs = [crandom(rng, n) for _ in range(step)]
            trial = cols + [v / np.linalg.norm(v) for v in vs]
            M = np.column_stack(trial)
            G = M.T @ space.gram @ M
            s = svd(G, compute_uv=False)
            if s[-1] > NONDEGENERATE_TOL:
                cols = trial
        if len(cols) < rank - radical:
            continue
        for _ in range(radical):
            M = np.column_stack(cols) if cols else np.zeros((n, 0))
            C = np.vstack([(space.gram @ M).T, (space.gram.T @ M).T])
            v = isotropic_vector_in_wrapped(space, solve_constraints_masked(C, n), rng)
            if v is None:
                break
            cols.append(v)
        else:
            M = np.column_stack(cols)
            U, s, _ = svd(M, full_matrices=False)
            if np.count_nonzero(s > SPAN_RANK_TOL) == rank and \
                    _span_invariants(U, s, space) == (rank, radical):
                return M
    raise RuntimeError(f"could not realize (rank, radical) = ({rank}, {radical})")
