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

A module holds its own tables.  Its halves, the scatter table of rho and
the sign of each basis element against its complement under the form are
built with it, by bit arithmetic on the subsets' bitmasks.  The blocks of rho(v)
between the halves and the half-space forms are built on first use, per
side, on the 2^(m-1) coordinates of a half; the full Gram only when it is
read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .cxlinalg import BilinearSpace, crandom, frobenius
from .frozen import Frozen, read_only


class SpinModule(Frozen):
    """Lambda* U, U = C^m, with the Clifford action and the form.

    Built with the module, all read-only: the basis subsets (by size, then
    lexicographic), the basis indices of S+ and S-, each index's place in
    its half (_place), where rho(v) is nonzero (_rho) and each index's sign
    under the form against its complement (_form_sign).  rho_half's tables, the
    full Gram and the half spaces are built on first use and kept in
    _built.  spin_module holds one module per m; modules compare and hash by
    identity."""

    _repr = ("m", "basis")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"spinor modules need m >= 1, got m = {m}")
        n, i = 1 << m, np.arange(m)
        # The bitmasks sum(1 << x for x in s) in basis order (by size k, then
        # by descending bit-reversed mask, which is lexicographic), their
        # inverse pos[mask] = index and bits[index, x] = [x in s].
        every = (np.arange(n)[:, None] >> i) & 1
        desc, size = every[::-1, ::-1] @ (1 << i), every[::-1].sum(axis=1)
        by_size = size.argsort(kind="stable")
        masks, k = desc[by_size], size[by_size]
        pos = np.empty(n, dtype=np.int64)
        pos[masks] = np.arange(n)
        bits = every[masks]
        even, odd = np.flatnonzero(k % 2 == 0), np.flatnonzero(k % 2 == 1)
        place = np.empty(n, dtype=np.int64)
        place[even], place[odd] = np.arange(len(even)), np.arange(len(odd))
        read_only(even, odd, place)
        # rho(v) at flat (row, col) positions, with the coordinate of v and the
        # sign for each, in (column, i) order.  Column s gets e_i ^ s for i not
        # in s and the contraction of s by e*_i for i in s, both at row s ^ {i}
        # with sign (-1)^(number of elements of s below i), so for a fixed
        # column no position is written twice.
        flat = pos[masks[:, None] ^ (1 << i)] * n + np.arange(n)[:, None]
        sign = 1.0 - 2.0 * ((np.cumsum(bits, axis=1) - bits) & 1)
        # The form on basis elements (s, t) is nonzero only for t the
        # complement of s, which is the basis element n - 1 - index: taking
        # complements reverses the lexicographic order of the subsets of each
        # size and the order of the sizes.  For |s| = k the merge of s with
        # its complement has sum(s) - k(k-1)/2 inversions, and the form adds
        # the sign (-1)^[k/2].
        flips = bits @ i - k * (k - 1) // 2 + k // 2
        vars(self).update(
            m=m, basis=tuple(s for r in range(m + 1) for s in combinations(range(m), r)),
            even_indices=even, odd_indices=odd, _place=place,
            _rho=read_only(flat.ravel(), (i + m * bits).ravel(), sign.ravel()),
            _form_sign=read_only(1 - 2 * (flips & 1))[0], _built={})

    @property
    def dim(self) -> int:
        return 1 << self.m

    def _side_indices(self, side: str) -> np.ndarray:
        if side not in ("+", "-"):
            raise ValueError(f"spinor side must be '+' or '-', got {side!r}")
        return self.even_indices if side == "+" else self.odd_indices

    def _once(self, key: str, build):
        """_built[key], made by build() on first use."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    # ---------------------------------------------------------- rho action

    def rho(self, v: np.ndarray) -> np.ndarray:
        """Matrix of rho(v) on Lambda* U for v in V = U + U' (length 2m); a
        (..., 2m) stack of vectors gives the (..., 2^m, 2^m) stack of matrices."""
        return self._scatter(v, self._rho, self.dim)

    def rho_half(self, v: np.ndarray, side: str) -> np.ndarray:
        """rho(v) as a map S(side) -> S(-side), in half coordinates."""
        src = self._side_indices(side)
        return self._scatter(v, self._once("rho" + side, lambda: self._rho_half_table(src)),
                             self.dim // 2)

    def _rho_half_table(self, src: np.ndarray) -> tuple:
        """The entries of _rho in the columns src of a half, in its (column, i)
        order, with flat positions (row = flat >> m) moved to the block from
        that half to the other."""
        m = self.m
        flat, gen, sign = (a.reshape(1 << m, m)[src].ravel() for a in self._rho)
        return read_only(self._place[flat >> m] * len(src) + np.repeat(np.arange(len(src)), m),
                         gen, sign)

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
        """Gram matrix of the form on the basis (built on first read, read-only)."""
        return self._once("gram", lambda: self._gram(self._form_sign))

    def half_space(self, side: str) -> BilinearSpace:
        """The form restricted to S+ (side='+') or S- (side='-'), built on
        first use with a read-only Gram."""
        if self.m % 2:
            raise ValueError("the spinor form needs even m")
        idx = self._side_indices(side)
        return self._once("space" + side, lambda: BilinearSpace(
            f"spinor-form({self.m}){side}", len(idx), self._gram(self._form_sign[idx])))

    @staticmethod
    def _gram(sign: np.ndarray) -> np.ndarray:
        """The Gram on all basis elements, or on a half for even m (where s
        and its complement share parity): either way an ascending run of
        indices whose complements are the same run descending, so the Gram
        is antidiagonal with these signs."""
        G = np.zeros((len(sign), len(sign)), dtype=complex)
        G[np.arange(len(sign)), np.arange(len(sign))[::-1]] = sign
        return read_only(G)[0]

    def half_basis_subsets(self, side: str) -> tuple[tuple[int, ...], ...]:
        return tuple(self.basis[k] for k in self._side_indices(side))


#: The module of each m, built once per process.
spin_module = lru_cache(maxsize=None)(SpinModule)


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
