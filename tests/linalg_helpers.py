"""Test helpers: random elements of the structure group of a bilinear space."""

import numpy as np

from parabolics.cxlinalg import BilinearSpace


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
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = (S - S.T) / 2 if space.symmetric else (S + S.T) / 2
    X = np.linalg.solve(space.gram, scale * S)
    return expm(X)
