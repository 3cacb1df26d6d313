"""Dense complex linear algebra: bilinear spaces, Moore-Penrose inverse,
form adjoints, and restriction invariants.

Matrices are plain complex ndarrays.  Bilinear forms are wrapped in
BilinearSpace, which fixes the Gram matrix in the standard basis; the
Hermitian scalar product is always the standard coordinate one, matching
the convention {u, v} = omega(u, I^t conj(v)) for each supported Gram I.

Rank cuts are DEFAULT_TOL times the largest singular value involved, except that
_span_invariants cuts the restricted Gram at DEFAULT_TOL * max(|Gram|, 1) and the draws
of span_with_invariants at the absolute ISOTROPIC_TOL, NONDEGENERATE_TOL and SPAN_RANK_TOL.
Every SVD and least-squares solve of the package is svd or lstsq here, numpy's LAPACK gufuncs
unwrapped; singular_values, in closed form up to 2 x 2, serves decisions that read values only.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .frozen import Frozen, cached_property, read_only

DEFAULT_TOL = 1e-10
#: The absolute cuts of the draws: |q(u)| of an isotropic unit vector, the least
#: singular value of a nondegenerate Gram, a singular value counted in a rank.
ISOTROPIC_TOL, NONDEGENERATE_TOL, SPAN_RANK_TOL = 1e-8, 1e-6, 1e-8


def crandom(rng: np.random.Generator, *shape) -> np.ndarray:
    """A complex Gaussian array: the real parts are drawn first, then the
    imaginary parts, so every seeded stream depends on this order."""
    x = rng.standard_normal((2, *shape))  # one draw of both, in that order
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = x
    return z


def svd(a, full_matrices: bool = True, compute_uv: bool = True):
    """numpy's SVD of a complex matrix or (..., m, n) stack, bit for bit: its LAPACK
    gufunc on the same bytes, without the wrapper and errstate that cost about a
    quarter of a small call.  A slice that did not converge has NaN singular values."""
    if compute_uv:
        gufunc = _umath_linalg.svd_f if full_matrices else _umath_linalg.svd_s
        _, s, _ = out = gufunc(a, signature="D->DdD")
    else:
        s = out = _umath_linalg.svd(a, signature="D->d")
    if math.isnan(np.vdot(s, s)):  # a NaN makes s.s NaN; s >= 0 has no inf - inf
        raise LinAlgError("SVD did not converge")
    return out


def lstsq(a, b):
    """x of numpy's lstsq(a, b, rcond=None), bit for bit, for a complex (m, n) a, m >= 1, and
    b of m entries or (m, k >= 1): its LAPACK gufunc without the wrapper, raising as svd."""
    x, _, _, s = _umath_linalg.lstsq(a, b[:, None] if b.ndim == 1 else b,
                                     sys.float_info.epsilon * max(a.shape), signature="DDd->Ddid")
    if math.isnan(np.vdot(s, s)):
        raise LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0] if b.ndim == 1 else x


def singular_values(M) -> list[float]:
    """The singular values of a complex (m, n) matrix as floats, largest first: |M| for 1 x 1;
    for 2 x 2, s1 = sqrt((a + c)/2 + hypot((a - c)/2, |b|)) from M^H M = [[a, b], [b*, c]] and
    s2 = |det M| / s1 if s1^2 is a normal float and s2 finite; else svd's."""
    if M.shape == (1, 1):
        return [math.hypot((z := M.item()).real, z.imag)]  # abs(z) raises on an overflow
    if M.shape == (2, 2):
        (p, q), (r, t) = M.tolist()  # products and hypot overflow to inf; abs() and ** raise
        a = (p * p.conjugate() + r * r.conjugate()).real
        c = (q * q.conjugate() + t * t.conjugate()).real
        b, det = p.conjugate() * q + r.conjugate() * t, p * t - q * r
        s1 = math.sqrt((a + c) / 2 + math.hypot((a - c) / 2, b.real, b.imag))
        s2 = math.hypot(det.real, det.imag) / s1 if s1 else 0.0
        if s1 * s1 >= sys.float_info.min and math.isfinite(s1 + s2):
            return [s1, min(s2, s1)]  # in order, also when rounded
    return svd(M, compute_uv=False).tolist()


class BilinearSpace(Frozen):
    """A nondegenerate bilinear form omega(x, y) = x^T gram y on C^dim.  The
    Gram is read-only (a writable one is copied first), so the constants
    computed from it on first use cannot go stale.  Spaces compare and hash
    by identity."""

    _repr = ("kind", "dim", "gram")

    def __init__(self, kind: str, dim: int, gram: np.ndarray):
        if gram.flags.writeable:  # the caller's array: freeze a copy
            gram = read_only(gram.copy())[0]
        vars(self).update(kind=kind, dim=dim, gram=gram)

    @cached_property
    def symmetric(self) -> bool:
        return bool(np.array_equal(self.gram, self.gram.T))

    @cached_property
    def norm(self) -> float:
        """The spectral norm of the Gram."""
        return float(np.linalg.norm(self.gram, 2))

    def omega(self, x, y) -> complex:
        return complex(np.asarray(x) @ self.gram @ np.asarray(y))


@lru_cache(maxsize=None)
def symmetric_space(dim: int) -> BilinearSpace:
    return BilinearSpace("symmetric-Id", dim, np.eye(dim, dtype=complex))


@lru_cache(maxsize=None)
def symplectic_space(dim: int) -> BilinearSpace:
    if dim % 2:
        raise ValueError("symplectic form needs even dimension")
    h = dim // 2
    gram = np.zeros((dim, dim), dtype=complex)
    gram[:h, h:] = np.eye(h)
    gram[h:, :h] = -np.eye(h)
    return BilinearSpace("symplectic-I", dim, gram)


def _antidiagonal(signs) -> np.ndarray:
    """The Gram pairing coordinate i with coordinate dim - 1 - i by sign / 2."""
    return np.diag(np.array(signs) / 2)[:, ::-1].astype(complex)


@lru_cache(maxsize=None)
def det_space() -> BilinearSpace:
    """det on C^2 (x) C^2 in row-major matrix coordinates: x0 x3 - x1 x2."""
    return BilinearSpace("det-on-C2xC2", 4, _antidiagonal((1, -1, -1, 1)))


@lru_cache(maxsize=None)
def pf_space() -> BilinearSpace:
    """Pf on Lambda^2 C^4, half the e1^e2^e3^e4 coefficient of x^x:
    x0 x5 - x1 x4 + x2 x3 in the basis e12, e13, e14, e23, e24, e34."""
    return BilinearSpace("pf-on-L2C4", 6, _antidiagonal((1, -1, 1, 1, -1, 1)))


# ----------------------------------------------------------- Moore-Penrose


def mp_inverse(F, usv=None) -> np.ndarray:
    """Moore-Penrose inverse via the kernel/image decomposition.

    Singular vectors with singular value > DEFAULT_TOL * s_max span the Hermitian
    complements of Ker F and of the complement of Im F; F restricted to
    them is inverted, the rest is sent to zero.  F may be a (..., m, n) stack; each
    slice equals the inverse of that slice alone, bit for bit.  usv: F's reduced svd."""
    F = np.asarray(F, dtype=complex)
    U, s, Vh = usv or svd(F, full_matrices=False)
    if F.ndim > 2:  # slices with no rank cut share one product; the rest go alone
        full = (s > DEFAULT_TOL * s[..., :1]).all(axis=-1)
        P = np.empty(F.shape[:-2] + (F.shape[-1], F.shape[-2]), dtype=complex)
        P[full] = (Vh[full].conj().swapaxes(-1, -2) / s[full][..., None, :]) @ \
            U[full].conj().swapaxes(-1, -2)
        for idx in zip(*np.nonzero(~full)):
            P[idx] = mp_inverse(F[idx])
        return P
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[1], F.shape[0]), dtype=complex)
    keep = s > DEFAULT_TOL * s[0]
    return (Vh[keep].conj().T / s[keep]) @ U[:, keep].conj().T


def frobenius(X) -> np.ndarray | np.float64:
    """The Frobenius norm of each matrix of a (..., m, n) stack (a float for
    one matrix), summed in the order np.linalg.norm sums a C-ordered one."""
    rows = np.ascontiguousarray(X).reshape(np.shape(X)[:-2] + (1, -1))
    # a (1, k) @ (k, 1) product is the same strided dot that norm takes
    sq = sum(p @ p.swapaxes(-1, -2) for p in (rows.real, rows.imag))
    return np.sqrt(sq[..., 0, 0])


def penrose_residuals(F, P) -> tuple[float, float, float, float]:
    """Scale-normalized residuals of the four Penrose equations.

    Each residual is ||lhs - rhs|| divided by the norm scale of the
    computation producing it, so a backward-stable pseudoinverse scores
    near machine epsilon regardless of conditioning.
    """
    F = np.asarray(F, dtype=complex)
    P = np.asarray(P, dtype=complex)
    nF, nP = np.linalg.norm(F), np.linalg.norm(P)

    def rel(num: float, scale: float) -> float:
        return num / scale if scale > 0 else num

    FP, PF = F @ P, P @ F
    return (
        rel(np.linalg.norm(P @ FP - P), nP * nF * nP + nP),
        rel(np.linalg.norm(FP @ F - F), nF * nP * nF + nF),
        rel(np.linalg.norm(FP - FP.conj().T), nF * nP + 1.0),
        rel(np.linalg.norm(PF - PF.conj().T), nF * nP + 1.0),
    )


# ------------------------------------------------------------ form algebra


def sharp_adjoint(A, space: BilinearSpace) -> np.ndarray:
    """Adjoint w.r.t. the bilinear form: omega(Ax, y) = omega(x, A# y).  A
    may be a (..., dim, dim) stack; each slice equals its matrix's alone."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (space.dim, space.dim):
        raise ValueError(f"expected a {space.dim}x{space.dim} matrix, got {A.shape}")
    return np.linalg.solve(space.gram, A.mT @ space.gram)


def orth(M, usv=None) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of M.  For a
    (..., m, n) stack, each slice has min(m, n) columns: its basis, which
    equals that slice's alone, then zero columns.  usv is as in mp_inverse."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = usv or svd(M, full_matrices=False)
    if M.ndim > 2:
        return np.where(s[..., None, :] > DEFAULT_TOL * s[..., None, :1], U, 0)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    return U[:, s > DEFAULT_TOL * s[0]]


def restriction_invariants(S, space: BilinearSpace) -> tuple[int, int]:
    """(rank, radical dimension) of the form restricted to span(S).

    S is one vector of C^dim or a (dim, k) matrix whose columns span the
    subspace; any other shape is a ValueError.  The radical is the kernel
    of the restricted Gram matrix; its dimension is basis-independent.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim not in (1, 2) or S.shape[0] != space.dim:
        raise ValueError(f"expected a vector of C^{space.dim} or a ({space.dim}, k) "
                         f"matrix, got shape {S.shape}")
    U, s, _ = svd(S if S.ndim == 2 else S[:, None], full_matrices=False)
    return _span_invariants(U, s, space)


def _span_invariants(U, s, space: BilinearSpace) -> tuple[int, int]:
    """restriction_invariants from one SVD U, s of the spanning matrix: the span is
    the columns of U whose singular value passes DEFAULT_TOL * s_max, a prefix."""
    if not (s := s.tolist()) or s[0] == 0.0:
        return 0, 0
    B = U[:, :sum(x > DEFAULT_TOL * s[0] for x in s)]
    cut = DEFAULT_TOL * max(space.norm, 1.0)
    return B.shape[1], sum(t <= cut for t in singular_values(B.T @ space.gram @ B))


# ------------------------------------------- structured subspace builders


def _solve_constraints(C: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of {x : C x = 0}; all of C^dim when C is zero or
    has no rows.  Singular values up to DEFAULT_TOL * s_max count as zero."""
    if not C.any():
        return np.eye(dim, dtype=complex)
    _, s, Vh = svd(C)
    # s falls, so the null directions are the rows of Vh from the rank on
    return Vh[np.count_nonzero(s > DEFAULT_TOL * s[0]):].conj().T


def isotropic_vector_in(space: BilinearSpace, basis: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray | None:
    """A nonzero isotropic vector inside the column span of basis."""
    k = basis.shape[1]
    if k == 0:
        return None
    if not space.symmetric:
        return basis @ crandom(rng, k)
    gram = space.gram
    for _ in range(32):
        a = basis @ crandom(rng, k)
        b = basis @ crandom(rng, k)
        aG = a @ gram  # omega(a, .) as omega computes it, taken once
        qa, qb, qab = complex(aG @ a), complex(b @ gram @ b), complex(aG @ b)
        # q(a + t b) = qa + 2 t qab + t^2 qb
        if abs(qb) > DEFAULT_TOL:
            t = (-qab + np.sqrt(qab * qab - qa * qb)) / qb
            v = a + t * b
        elif abs(qab) > DEFAULT_TOL:
            v = a - qa / (2 * qab) * b
        else:
            v = b
        norm = _norm(v)
        if norm > DEFAULT_TOL and abs(complex((u := v / norm) @ gram @ u)) < ISOTROPIC_TOL:
            return u
    return None


def _norm(v) -> float:
    """np.linalg.norm of a complex vector, the same sum without its wrapper."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _columns(vs) -> np.ndarray:
    """np.column_stack of vectors: a C-ordered matrix with them as columns."""
    return np.array(vs).T.copy()


def span_with_invariants(space: BilinearSpace, rank: int, radical: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Columns spanning a rank-dim subspace whose restricted form has the
    given radical dimension.  Raises if the pattern is not realizable.

    A draw is kept when its nondegenerate part's Gram has singular values
    above NONDEGENERATE_TOL, its columns have `rank` singular values above
    SPAN_RANK_TOL, and restriction_invariants, cutting at DEFAULT_TOL * s_max,
    gives (rank, radical); both rank cuts use one SVD."""
    n = space.dim
    if not (0 <= radical <= rank <= n and radical <= n - rank):
        raise ValueError(f"(rank, radical) = ({rank}, {radical}) not realizable in dim {n}")
    if not space.symmetric and (rank - radical) % 2:
        raise ValueError("skew form: the nondegenerate part must have even rank")
    if rank == 0:
        return np.zeros((n, 0), dtype=complex)
    step = 1 if space.symmetric else 2  # odd skew Grams are always singular
    gram = space.gram
    for _ in range(64):
        cols: list[np.ndarray] = []
        # nondegenerate part: random vectors, kept while the Gram stays nondegenerate
        attempts = 0
        while len(cols) < rank - radical and attempts < 200:
            attempts += 1
            vs = [crandom(rng, n) for _ in range(step)]
            trial = cols + [v / _norm(v) for v in vs]
            M = _columns(trial)
            if singular_values(M.T @ gram @ M)[-1] > NONDEGENERATE_TOL:
                cols = trial
        if len(cols) < rank - radical:
            continue
        # radical part: isotropic vectors orthogonal to everything chosen so far
        for _ in range(radical):
            M = _columns(cols) if cols else np.zeros((n, 0))
            C = np.concatenate([(gram @ M).T, (gram.T @ M).T])
            v = isotropic_vector_in(space, _solve_constraints(C, n), rng)
            if v is None:
                break
            cols.append(v)
        else:  # every radical vector found: both rank cuts from one SVD
            M = _columns(cols)
            U, s, _ = svd(M, full_matrices=False)
            if s[-1] > SPAN_RANK_TOL and \
                    _span_invariants(U, s, space) == (rank, radical):
                return M
    raise RuntimeError(f"could not realize (rank, radical) = ({rank}, {radical})")
