"""Hermitian characteristics of nilpotent elements.

Two constructions live here:

* block-triangular nilpotents in gl(V): each block is completed to an
  sl2-triple by its Moore-Penrose inverse, giving the unique Hermitian
  multiple characteristic for the standard products;
* the B-from-A solver: given A: U -> W and a symmetric or symplectic form
  on W, produce a Hermitian form on U and B: W -> U solving

      2A = 2ABA - (AB)#A,   2B = 2BAB - B(AB)#,
      BA and AB - (AB)# Hermitian,

  by splitting W into the radical W0 of the restricted form on Im A, its
  Hermitian complement W1 in Im A, the conjugated copy of the radical and
  the leftover, and setting B = A+ (P0 + 2 P1), with P0 the projection
  onto W0 along the rest and P1 the omega-orthogonal one onto W1.  A stack
  of maps is solved with one call per step for all its generic maps and
  returns only B and H, without the splitting.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cxlinalg import (
    DEFAULT_TOL,
    BilinearSpace,
    _solve_constraints,
    crandom,
    frobenius,
    mp_inverse,
    orth,
    sharp_adjoint,
    svd,
)
from .frozen import Frozen

DEFAULT_SL2_TOL = 1e-9


def _comm(x, y):
    return x @ y - y @ x


class Sl2Triple(NamedTuple):
    """An sl2-triple, or a (T, n, n) stack of T triples."""

    e: np.ndarray
    h: np.ndarray
    f: np.ndarray
    #: norms of [e,f]-h, [h,e]-2e, [h,f]+2f, h-h* (length-T arrays for a stack)
    residuals: tuple

    def accepted(self) -> bool:
        """Whether every residual of one triple is below DEFAULT_SL2_TOL."""
        return all(r < DEFAULT_SL2_TOL for r in self.residuals)


def verify_sl2(e, h, f) -> Sl2Triple:
    """Package (e, h, f) with the residuals of the sl2 relations.

    Zero triples are fine; shapes must agree.  Stacks of square matrices
    give one residual per matrix, each equal to that matrix's alone.
    """
    e, h, f = (np.asarray(m, dtype=complex) for m in (e, h, f))
    if not (e.shape == h.shape == f.shape) or e.ndim < 2 or e.shape[-1] != e.shape[-2]:
        raise ValueError("e, h, f must be square matrices of equal size")
    residuals = (
        frobenius(_comm(e, f) - h),
        frobenius(_comm(h, e) - 2 * e),
        frobenius(_comm(h, f) + 2 * f),
        frobenius(h - h.conj().swapaxes(-1, -2)),
    )
    return Sl2Triple(e, h, f, residuals)


# ------------------------------------------------------------- gl(V) case


class BlockNilpotent(Frozen):
    """Strictly upper-triangular block element of gl(V), V = V_1 + ... + V_k.

    blocks maps (i, j) with i < j (1-based) to a matrix V_i -> V_j of shape
    (dims[j-1], dims[i-1]), or, for T elements at once, to a stack of T such
    matrices.
    """

    _repr = ("dims", "blocks")

    def __init__(self, dims: tuple[int, ...], blocks: dict[tuple[int, int], np.ndarray]):
        for (i, j), m in blocks.items():
            if not 1 <= i < j <= len(dims):
                raise ValueError(f"block index {(i, j)} out of range")
            want = (dims[j - 1], dims[i - 1])
            if np.shape(m)[-2:] != want or np.ndim(m) > 3:
                raise ValueError(f"block {(i, j)} has shape {np.shape(m)}, expected {want}")
        vars(self).update(dims=dims, blocks=blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def offset(self, i: int) -> int:
        return sum(self.dims[: i - 1])

    def embed(self, i: int, j: int, m) -> np.ndarray:
        """Place a V_i -> V_j block (or a stack of them) into End(V)."""
        E = np.zeros(np.shape(m)[:-2] + (self.total_dim, self.total_dim), dtype=complex)
        oi, oj = self.offset(i), self.offset(j)
        E[..., oj: oj + self.dims[j - 1], oi: oi + self.dims[i - 1]] = m
        return E


def random_block_nilpotent(rng: np.random.Generator, dims: tuple[int, ...]) -> BlockNilpotent:
    """Every block (i, j), i < j, a complex Gaussian, drawn in (i, j) order."""
    return BlockNilpotent(dims, {(i, j): crandom(rng, dims[j - 1], dims[i - 1])
                                 for i in range(1, len(dims))
                                 for j in range(i + 1, len(dims) + 1)})


def _projector(M, usv=None):
    """The orthogonal projector onto the span of M, or of each slice of a
    stack; a slice with a rank cut goes alone (orth's zero columns round)."""
    Q = orth(M, usv)
    P = Q @ Q.conj().mT
    if Q.ndim > 2:
        for idx in zip(*np.nonzero(~Q[..., -1].any(-1))):
            P[idx] = _projector(M[idx])
    return P


def gl_hermitian_characteristic(x: BlockNilpotent) -> dict[tuple[int, int], Sl2Triple]:
    """Per-block sl2-triples f = e+ and h = the image projector of e, both read from one
    SVD of e, minus the coimage projector, read from e*'s (so ||[e, f] - h|| compares two
    routes), embedded in End(V); for a stacked x, stacks of triples, each slice equal to its
    element's alone."""
    triples = {}
    for (i, j), e_block in sorted(x.blocks.items()):
        e_block = np.asarray(e_block, dtype=complex)
        e = x.embed(i, j, e_block)
        f = x.embed(j, i, mp_inverse(e_block, usv := svd(e_block, full_matrices=False)))
        h = x.embed(j, j, _projector(e_block, usv)) - x.embed(i, i, _projector(e_block.conj().mT))
        triples[(i, j)] = verify_sl2(e, h, f)
    return triples


GL_TRIAL_DIMS = ((2, 3, 2), (1, 4, 2, 1))


def gl_characteristic_trials(rng: np.random.Generator, trials: int) -> tuple[int, float]:
    """The number of `trials` random block nilpotents (trial t of dims
    GL_TRIAL_DIMS[t % 2]) whose characteristic has a rejected triple, and the
    largest h - h* defect.  All are drawn first; each dims runs as one stack."""
    xs = [random_block_nilpotent(rng, GL_TRIAL_DIMS[t % 2]) for t in range(trials)]
    rejected, worst_h = 0, 0.0
    for first, dims in enumerate(GL_TRIAL_DIMS[:trials]):
        group = xs[first::len(GL_TRIAL_DIMS)]
        stack = BlockNilpotent(dims, {ij: np.stack([x.blocks[ij] for x in group])
                                      for ij in group[0].blocks})
        res = np.array([t.residuals for t in gl_hermitian_characteristic(stack).values()])
        rejected += int(np.count_nonzero(~(res < DEFAULT_SL2_TOL).all(axis=(0, 1))))
        worst_h = max(worst_h, float(res[:, 3].max()))
    return rejected, worst_h


# --------------------------------------------------------------- the lemma


class LemmaSolution(NamedTuple):
    """Output of lemma_B_from_A, with the splitting used to build it; a
    stack of maps carries only A, B and H, its splitting fields None."""

    A: np.ndarray
    B: np.ndarray
    #: Gram matrix of the Hermitian form on U (x, y) -> x* H y
    hermitian_u: np.ndarray
    W0: np.ndarray | None = None
    W1: np.ndarray | None = None
    W2: np.ndarray | None = None
    W3: np.ndarray | None = None
    U0: np.ndarray | None = None
    U1: np.ndarray | None = None
    U2: np.ndarray | None = None


def lemma_B_from_A(A, space: BilinearSpace) -> LemmaSolution:
    """Solve the characteristic equations for A: U -> W.

    space must be the symmetric or symplectic form on W in its standard
    Gram G; the Hermitian product on W is the standard coordinate one.
    B = A+ (P0 + 2 P1): P0 = W0 W0* projects onto W0 along the rest, and
    P1 = W1 N W1^T G onto W1 omega-orthogonally, with N the inverse of the
    omega-Gram of W1 given back that Gram's symmetry.  Total: works for
    every A, including A = 0.  A may be a (..., k, n) stack: generic slices
    (full column rank, no radical, no rank cut) share each step, the others
    go alone, and each slice's B and H equal its map's alone, bit for bit.
    """
    A = np.asarray(A, dtype=complex)
    k, n = A.shape[-2:]
    if k != space.dim:
        raise ValueError(f"A maps into C^{k} but the form lives on C^{space.dim}")
    G = space.gram
    im = orth(A, usv := svd(A, full_matrices=False))  # Im A's orthonormal basis; A+ reads usv
    _, s, Vh = svd(im.mT @ G @ im)
    V, cut = Vh.conj().mT, DEFAULT_TOL * max(space.norm, 1.0)
    Aplus = mp_inverse(A, usv)  # inverts Im A -> Ker-perp
    if A.ndim > 2:  # every slice as if generic (W0 = 0); the others are redone below
        W1 = im @ V
        T = orth(Aplus @ W1)
        # a stacked orth pads the basis of a slice with a rank cut with zeros
        generic = (n <= k) & im[..., -1].any(-1) & (s[..., -1] > cut) & T[..., -1].any(-1)
        P0 = 0.0
    else:
        r = int(np.count_nonzero(s > cut))  # W0: the radical of the form on Im A
        W0, W1 = im @ V[:, r:], im @ V[:, :r]
        W2 = G @ W0.conj()
        # W3 must be the omega-orthogonal leftover: the displayed action of
        # (AB)# on the four summands forces omega(W3, W0 + W1 + W2) = 0, and
        # Hermitian orthogonality of W3 against W0 and W2 then holds for free.
        W3 = _solve_constraints(np.hstack([W0, W1, W2]).T @ G, k)
        U0, U1 = Aplus @ W0, Aplus @ W1
        U2 = _solve_constraints(A, n) if im.shape[1] < n else Aplus[:, :0]
        T = np.hstack([orth(U0), orth(U1), U2])
        if T.shape[1] != n:
            raise RuntimeError("U0 + U1 + U2 failed to fill U; rank tolerance too tight")
        generic, P0 = np.True_, W0 @ W0.conj().mT

    def inv(M):  # a slice that is not generic inverts Id here
        return np.linalg.inv(np.where(generic[..., None, None], M, np.eye(M.shape[-1])))

    hermitian_u = inv(T @ T.conj().mT)
    N = inv(W1.mT @ G @ W1)
    N = (N + N.mT) / 2 if space.symmetric else (N - N.mT) / 2
    B = Aplus @ (P0 + 2 * (W1 @ N @ W1.mT @ G))
    if A.ndim > 2:
        for idx in zip(*np.nonzero(~generic)):
            B[idx], hermitian_u[idx] = lemma_B_from_A(A[idx], space)[1:3]
        return LemmaSolution(A, B, hermitian_u)
    return LemmaSolution(A, B, hermitian_u, W0, W1, W2, W3, U0, U1, U2)


def lemma_residuals(sol: LemmaSolution, space: BilinearSpace) -> dict[str, float]:
    """Scale-normalized residuals of the two equations and both
    Hermitianity conditions; for a stacked solution, one array per name."""
    A, B, H = sol.A, sol.B, sol.hermitian_u
    AB = A @ B
    ABs = sharp_adjoint(AB, space)
    nA, nB = frobenius(A), frobenius(B)
    scale = 1.0 + nA + nB + nA * nB * (1.0 + nA)
    star_a = frobenius(2 * A - 2 * AB @ A + ABs @ A) / scale
    star_b = frobenius(2 * B - 2 * B @ AB + B @ ABs) / scale
    BA = B @ A
    herm_ba = frobenius(BA.conj().mT @ H - H @ BA) / (1.0 + frobenius(H) * frobenius(BA))
    X = AB - ABs
    herm_ab = frobenius(X - X.conj().mT) / (1.0 + frobenius(X))
    return {"star_a": star_a, "star_b": star_b, "herm_ba": herm_ba, "herm_ab": herm_ab}


def lemma_worst_residual(rng: np.random.Generator, space: BilinearSpace, u: int,
                         trials: int) -> float:
    """The largest lemma residual over `trials` complex Gaussian maps
    A: C^u -> C^space.dim, all drawn first and solved as one stack."""
    A = np.stack([crandom(rng, space.dim, u) for _ in range(trials)])
    res = lemma_residuals(lemma_B_from_A(A, space), space)
    return float(max(r.max() for r in res.values()))
