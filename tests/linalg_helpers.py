"""Test helpers: the det and pf forms with the polarisation loop that gives
their Grams, random elements of the structure group of a bilinear space,
the one-matrix Moore-Penrose inverse that stacked inverses must match, the
flag form of an orthogonal/symplectic grading with its g_lambda and
g_-lambda embeddings, spinors named by basis subsets, a spin module with
one generator planted wrong and a spy on root-sum table reads."""

import numpy as np

from parabolics.cxlinalg import (DEFAULT_TOL, BilinearSpace, crandom, symmetric_space,
                                 symplectic_space)
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
