"""Half-spinor modules via the exterior algebra of a maximal isotropic subspace.

V = C^{2m} carries the split symmetric product (e_i, e*_j) = delta_ij with
U = span(e_1..e_m) and U' = span(e*_1..e*_m) maximal isotropic.  The
exterior algebra of U becomes a Clifford module: vectors of U act by
wedging, vectors of U' by contraction, and rho(v)^2 = (v, v) Id.  The even
and odd halves are the half-spinor modules S+ and S-.

For even m the module carries the bilinear form whose value on (u, v) is
the top-degree coefficient of (-1)^[deg u / 2] u ^ v; it is symmetric on
the halves when m = 4k and symplectic when m = 4k + 2, and the halves are
orthogonal to each other.

The half-space forms and the blocks of rho(v) between the halves are built
on the 2^(m-1) coordinates of a half; the full Gram only when it is read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .cxlinalg import BilinearSpace, crandom, frobenius
from .frozen import Frozen


class SpinModule(Frozen):
    """Basis bookkeeping for Lambda* U, U = C^m, and the Clifford action
    (one per m; modules compare and hash by identity)."""

    _repr = ("m", "basis")

    def __init__(self, m: int, basis: tuple[tuple[int, ...], ...]):
        vars(self).update(m=m, basis=basis)

    @property
    def dim(self) -> int:
        return 1 << self.m

    @property
    def even_indices(self) -> np.ndarray:
        """Basis indices of S+, ascending (cached per m, read-only)."""
        return _half_indices(self.m)[0]

    @property
    def odd_indices(self) -> np.ndarray:
        """Basis indices of S-, ascending (cached per m, read-only)."""
        return _half_indices(self.m)[1]

    def _side_indices(self, side: str) -> np.ndarray:
        if side not in ("+", "-"):
            raise ValueError(f"spinor side must be '+' or '-', got {side!r}")
        return self.even_indices if side == "+" else self.odd_indices

    # ---------------------------------------------------------- rho action

    def rho(self, v: np.ndarray) -> np.ndarray:
        """Matrix of rho(v) on Lambda* U for v in V = U + U' (length 2m); a
        (..., 2m) stack of vectors gives the (..., 2^m, 2^m) stack of matrices."""
        return self._scatter(v, _rho_scatter(self.m), self.dim)

    def _scatter(self, v, table, n: int) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape[-1:] != (2 * self.m,):
            raise ValueError(f"vector must live in C^{2 * self.m}")
        flat, gen, sign = table
        M = np.zeros((*v.shape[:-1], n * n), dtype=complex)
        # Adding to a zero entry, as an entry-wise build does, turns the
        # -0.0 parts of v[gen] * sign into +0.0.
        M[..., flat] = 0 + v[..., gen] * sign
        return M.reshape(*v.shape[:-1], n, n)

    def pairing(self, v, w) -> complex:
        """(v, w) on V, with U and U' isotropic and dual to each other.

        Normalized so that rho(v)^2 = (v, v) Id holds with the wedge and
        contraction formulas as given (the contraction coefficient of e*_i
        against e_i is 1, the quadratic form value of e_i + e*_i is 1).
        """
        v, w = np.asarray(v), np.asarray(w)
        m = self.m
        return complex(v[:m] @ w[m:] + v[m:] @ w[:m]) / 2

    # ------------------------------------------------------------ the form

    @property
    def form_gram(self) -> np.ndarray:
        """Gram matrix of the form on the basis (cached per m, read-only)."""
        return _form_gram(self.m)

    def half_space(self, side: str) -> BilinearSpace:
        """The form restricted to S+ (side='+') or S- (side='-'), cached per
        (m, side) with a read-only Gram."""
        if self.m % 2:
            raise ValueError("the spinor form needs even m")
        return _half_space(self.m, side)

    def half_basis_subsets(self, side: str) -> tuple[tuple[int, ...], ...]:
        return tuple(self.basis[k] for k in self._side_indices(side))

    def rho_half(self, v: np.ndarray, side: str) -> np.ndarray:
        """rho(v) as a map S(side) -> S(-side), in half coordinates."""
        return self._scatter(v, _rho_half_scatter(self.m, side), self.dim // 2)


@lru_cache(maxsize=None)
def spin_module(m: int) -> SpinModule:
    if m < 1:
        raise ValueError(f"spinor modules need m >= 1, got m = {m}")
    basis = tuple(
        s for r in range(m + 1) for s in combinations(range(m), r)
    )
    return SpinModule(m=m, basis=basis)


#: Bytes of the rho(v) stack that rho_square_defect squares at once: stacks
#: of 256 KB and more raised the peak RSS of `verify-all` by 0.8-1.4 MB.
_RHO_STACK_BYTES = 1 << 16


def rho_square_defect(rng: np.random.Generator, sm: SpinModule, trials: int) -> float:
    """The largest ||rho(v)^2 - (v, v) Id|| over `trials` complex Gaussian v,
    drawn in turn; the rho(v) are scattered and squared as stacks."""
    V = np.array([crandom(rng, 2 * sm.m) for _ in range(trials)])
    q = np.array([sm.pairing(v, v) for v in V])[:, None, None]
    I = np.eye(sm.dim)
    step = max(1, _RHO_STACK_BYTES // (16 * sm.dim ** 2))
    defects = [0.0]
    for a in range(0, trials, step):
        R = sm.rho(V[a:a + step])
        defects.extend(frobenius(R @ R - q[a:a + step] * I).tolist())
    return float(np.max(defects))  # a NaN defect is the worst


@lru_cache(maxsize=None)
def _subset_bits(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bitmasks sum(1 << x for x in s) of the basis subsets, in
    basis order (by size, then by descending bit-reversed mask, which is
    lexicographic), their inverse pos[mask] = index and bits[k, x] = [x in s_k]."""
    every = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    desc, size = every[::-1, ::-1] @ (1 << np.arange(m)), every[::-1].sum(axis=1)
    masks = np.concatenate([desc[size == k] for k in range(m + 1)])
    pos = np.empty(1 << m, dtype=np.int64)
    pos[masks] = np.arange(1 << m)
    bits = every[masks]
    for a in (masks, pos, bits):
        a.setflags(write=False)
    return masks, pos, bits


@lru_cache(maxsize=None)
def _half_indices(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis indices of the even and of the odd subsets, and each index's place in its half."""
    parity = _subset_bits(m)[2].sum(axis=1) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    where = np.empty(1 << m, dtype=np.int64)
    where[even], where[odd] = np.arange(len(even)), np.arange(len(odd))
    for a in (even, odd, where):
        a.setflags(write=False)
    return even, odd, where


@lru_cache(maxsize=None)
def _half_space(m: int, side: str) -> BilinearSpace:
    """The Gram on S(side), scattered directly (for even m s and its complement share parity)."""
    idx, where = spin_module(m)._side_indices(side), _half_indices(m)[2]
    partner, sign = _form_partner(m)
    G = np.zeros((len(idx), len(idx)), dtype=complex)
    G[np.arange(len(idx)), where[partner[idx]]] = sign[idx]
    G.setflags(write=False)  # shared by every caller of this (m, side)
    return BilinearSpace(f"spinor-form({m}){side}", len(idx), G)


@lru_cache(maxsize=None)
def _rho_scatter(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where rho(v) is nonzero: flat (row, col) positions, the coordinate of
    v and the sign for each, in (column, i) order.  Column s gets e_i ^ s for
    i not in s and the contraction of s by e*_i for i in s, both at row
    s ^ {i} with sign (-1)^(number of elements of s below i), so for a fixed
    column no position is written twice."""
    masks, pos, bits = _subset_bits(m)
    i = np.arange(m)
    flat = pos[masks[:, None] ^ (1 << i)] * (1 << m) + np.arange(1 << m)[:, None]
    sign = 1.0 - 2.0 * ((np.cumsum(bits, axis=1) - bits) & 1)
    return flat.ravel(), (i + m * bits).ravel(), sign.ravel()


@lru_cache(maxsize=None)
def _rho_half_scatter(m: int, side: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of _rho_scatter(m) in the columns of S(side), in its (column, i)
    order, with flat positions (row = flat >> m) moved to the block S(side) -> S(-side)."""
    src, where = spin_module(m)._side_indices(side), _half_indices(m)[2]
    flat, gen, sign = (a.reshape(1 << m, m)[src].ravel() for a in _rho_scatter(m))
    return where[flat >> m] * len(src) + np.repeat(np.arange(len(src)), m), gen, sign


@lru_cache(maxsize=None)
def _form_partner(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The form on basis elements (s, t) is nonzero only for t the complement
    of s: for each basis index, the index of its complement and the sign.  For
    |s| = k the merge of s with its complement has sum(s) - k(k-1)/2
    inversions, and the form adds the sign (-1)^[k/2]."""
    masks, pos, bits = _subset_bits(m)
    k = bits.sum(axis=1)
    flips = bits @ np.arange(m) - k * (k - 1) // 2 + k // 2
    return pos[masks ^ ((1 << m) - 1)], 1 - 2 * (flips & 1)


@lru_cache(maxsize=None)
def _form_gram(m: int) -> np.ndarray:
    """The full Gram, built only when form_gram is read."""
    partner, sign = _form_partner(m)
    G = np.zeros((1 << m, 1 << m), dtype=complex)
    G[np.arange(1 << m), partner] = sign
    G.setflags(write=False)  # shared by every caller
    return G

