"""Test helpers: the det and pf forms with the polarisation loop that gives
their Grams, random elements of the structure group of a bilinear space,
and the one-matrix Moore-Penrose inverse that stacked inverses must match."""

import numpy as np

from parabolics.cxlinalg import DEFAULT_TOL, BilinearSpace, crandom


def mp_inverse_2d(F, rtol=DEFAULT_TOL) -> np.ndarray:
    """The one-matrix Moore-Penrose inverse as written before stacks."""
    F = np.asarray(F, dtype=complex)
    U, s, Vh = np.linalg.svd(F, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[1], F.shape[0]), dtype=complex)
    keep = s > rtol * s[0]
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
