"""Ampleness predicates and randomized-but-verified deformation searches.

Tensors in C^k (x) R are stored as complex arrays of shape (dim R, k):
columns are the images of the k-th dual basis vectors inside the quadratic
space R.  A tensor is ample when the restriction of the form of R to the
column span is nondegenerate or zero; every deformation search below
re-checks that predicate on its candidate witness before reporting it.

Each variant is one VariantSpec in SPECS, commented there with its inputs,
its witness and, in brackets, the deformed object; deform() runs every one
of them the same way.  The varieties of Prop 1 (variants 1A-1C) are given
by their defining quadrics, and every test on them reads those quadrics.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .cxlinalg import (
    BilinearSpace,
    crandom,
    det_space,
    isotropic_vector_in,
    lstsq,
    mp_inverse,
    orth,
    pf_space,
    restriction_invariants,
    singular_values,
    span_with_invariants,
    svd,
    symmetric_space,
)
from .frozen import read_only
from .spinor import spin_module


class HypothesesNotMet(ValueError):
    """The task input does not satisfy the variant's hypotheses."""


def ample(A, space: BilinearSpace) -> bool:
    """Whether the column span of A is ample: the form restricts to it
    either nondegenerately or as zero (a totally isotropic span)."""
    rank, radical = restriction_invariants(A, space)
    return radical in (0, rank)


# -------------------------------------------------------- two-varieties
# Prop 1's varieties, zero sets of quadrics: each has its space's dim, a norm bounding
# the quadrics on unit vectors, their (c0, c1, c2) on s a + t b, and a random line.


def _kernel(C, r: int) -> np.ndarray:
    """The right singular vectors of C from the r-th on: an orthonormal basis
    of {x : C x = 0} when C has rank r, of a subspace of it when less."""
    return svd(C)[2].conj().T[:, r:]


class QuadricVariety(NamedTuple):
    """Zero locus of the quadratic form of a symmetric-Gram space."""

    space: BilinearSpace
    dim = property(lambda self: self.space.dim)
    norm = property(lambda self: self.space.norm)

    def quadrics(self, a, b) -> list:
        sp = self.space
        return [(sp.quadratic(a), 2 * sp.omega(a, b), sp.quadratic(b))]

    def line(self, rng) -> np.ndarray:
        sp = self.space
        x = isotropic_vector_in(sp, np.eye(sp.dim, dtype=complex), rng)
        # y in a (dim - 2)-dim subspace, picked by the SVD, of the (dim - 1)-dim omega-orthogonal
        # of x (the stack has rank 1); nothing makes y non-isotropic.  The seeded draws pin it.
        y = _kernel(np.stack([sp.gram @ x, sp.gram.T @ x]), 2) @ crandom(rng, sp.dim - 2)
        return np.column_stack([x, y]) @ (np.eye(2) + 0.1 * crandom(rng, 2, 2))


class SegreVariety(NamedTuple):
    """Rank-one matrices in C^2 (x) C^k, the zero set of the 2 x 2 minors."""

    k: int
    dim = property(lambda self: 2 * self.k)
    norm = 1.0  # a minor of unit vectors is at most 2

    def quadrics(self, a, b) -> list:
        M1, M2 = a.reshape(2, self.k), b.reshape(2, self.k)
        d = lambda X, Y, i, j: X[0, i] * Y[1, j] - X[1, i] * Y[0, j]
        return [(d(M1, M1, i, j), d(M1, M2, i, j) + d(M2, M1, i, j), d(M2, M2, i, j))
                for i, j in combinations(range(self.k), 2)]

    def line(self, rng) -> np.ndarray:
        x = np.outer(crandom(rng, 2), crandom(rng, self.k)).reshape(-1)
        return np.column_stack([x, crandom(rng, 2 * self.k)])


#: The relative cut below which is_degenerate_line_map takes a singular
#: value, a quadratic coefficient, a discriminant or a quadric's value for zero.
LINE_MAP_TOL = 1e-8
#: allclose's test of a printed canonical A: |A_in - A| <= atol + rtol |A|.
PRINTED_ATOL, PRINTED_RTOL = 1e-12, 1e-5
#: The cuts on v's residual in Im A per |v| (1C), |omega(s, s)| per |s|^2 (7C),
#: a column mix's singular values, and s_2 per s_1 (5C).
IN_IMAGE_TOL, SPINOR_SQUARE_TOL, MIX_RANK_TOL, RANK_TWO_TOL = 1e-8, 1e-10, 1e-8, 1e-8
#: The random candidates a search draws after its deterministic witnesses.
MAX_RESTARTS = 1000


def _projective_roots(c0: complex, c1: complex, c2: complex, norm: float = 0.0):
    """Distinct projective roots (s : t) of c0 s^2 + c1 st + c2 t^2; None if no
    coefficient exceeds LINE_MAP_TOL * norm, the norm of a form giving them
    on unit vectors."""
    scale = max(abs(c0), abs(c1), abs(c2))
    if scale <= LINE_MAP_TOL * norm:
        return None
    roots = []
    if abs(c0) <= LINE_MAP_TOL * scale:
        roots.append((1.0, 0.0))
        if abs(c1) > LINE_MAP_TOL * scale:
            roots.append((-c2 / c1, 1.0))
    else:
        disc = c1 * c1 - 4 * c0 * c2
        if abs(disc) <= LINE_MAP_TOL * scale * scale:
            roots.append((-c1 / (2 * c0), 1.0))
        else:
            sq = np.sqrt(disc)
            roots.append(((-c1 + sq) / (2 * c0), 1.0))
            roots.append(((-c1 - sq) / (2 * c0), 1.0))
    distinct = []
    for r in roots:
        if all(abs(r[0] * q[1] - r[1] * q[0]) > LINE_MAP_TOL * (1 + abs(r[0]) + abs(q[0]))
               for q in distinct):
            distinct.append(r)
    return distinct


def is_degenerate_line_map(A, variety) -> bool:
    """rank A = 2 and the projective line P(Im A) meets the variety in
    exactly one point: one root (p : q) of its largest quadric, on that quadric's
    scale, at which every other is at most LINE_MAP_TOL * norm * (|p|^2 + |q|^2)."""
    if not isinstance(variety, (QuadricVariety, SegreVariety)):
        raise ValueError(f"unsupported variety {variety!r}")
    A = np.asarray(A, dtype=complex)
    if A.shape[1] != 2:
        raise ValueError("a line map has exactly two columns")
    U, s, _ = svd(A, full_matrices=False)
    if s[0] == 0 or s[1] <= LINE_MAP_TOL * s[0]:
        return False
    largest, *others = sorted(variety.quadrics(U[:, 0], U[:, 1]), key=lambda c: -max(map(abs, c)))
    roots = _projective_roots(*largest, variety.norm)
    if roots is None:  # the whole line lies on the variety
        return False
    cut = LINE_MAP_TOL * variety.norm
    return sum(all(abs(c0 * p * p + c1 * p * q + c2 * q * q) <= cut * (abs(p) ** 2 + abs(q) ** 2)
                   for c0, c1, c2 in others) for p, q in roots) == 1


# ------------------------------------------------- wedge helper tables

#: Lambda^2 C^4 basis, 0-based index pairs
PF2 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
#: Lambda^3 C^4 basis
PF3 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
#: Lambda^2 C^3 basis
L2C3 = ((0, 1), (0, 2), (1, 2))


def wedge_vv(u, v) -> np.ndarray:
    """u ^ v for u, v in C^n, in the coordinates of the pairs i < j in
    lexicographic order: PF2 for n = 4, L2C3 for n = 3."""
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(len(u)), 2)],
                    dtype=complex)


def wedge_bv4(b, v) -> np.ndarray:
    """b ^ v for b in Lambda^2 C^4 (PF2 coords), v in C^4, in PF3 coords."""
    c = {pair: b[l] for l, pair in enumerate(PF2)}
    out = np.zeros(4, dtype=complex)
    for t, (p, q, r) in enumerate(PF3):
        out[t] = c[(p, q)] * v[r] - c[(p, r)] * v[q] + c[(q, r)] * v[p]
    return out


def _unfold_5a(T) -> np.ndarray:
    """(2, n, 2) tensor -> columns in det space, one per middle index."""
    return T.transpose(0, 2, 1).reshape(4, T.shape[1])


def _fold_5a(M) -> np.ndarray:
    """Det-space columns -> the (2, n, 2) tensor with them as middle slices."""
    return M.reshape(2, 2, M.shape[1]).transpose(0, 2, 1)


def _compose_5a(E_terms, A) -> np.ndarray:
    """E o A for E = sum phi (x) v, embedding C^3 by v: x -> v ^ x."""
    out = np.zeros((2, 3, 2), dtype=complex)
    for phi, v in E_terms:
        W = np.column_stack([wedge_vv(v, e) for e in np.eye(3)])
        out += np.einsum("Bb,lc,bca->Bla", phi, W, A)
    return out


# ------------------------------------------------- canonical witnesses
# Each is built once and shared, so its arrays are read-only.


@lru_cache(maxsize=None)
def _canonical_7b_data():
    plus = {s: k for k, s in enumerate(spin_module(4).half_basis_subsets("+"))}

    def vv(*idx):
        v = np.zeros(8, dtype=complex)
        v[list(idx)] = 1
        return v

    def sp(*subsets):  # in S+, by the subsets of its basis
        return vv(*(plus[s] for s in subsets))

    A1 = np.column_stack([sp((0, 1), (2, 3)), sp(()), np.zeros(8)])
    A2 = np.column_stack([sp(()), sp((0, 1)), sp((2, 3))])
    A3 = np.column_stack([sp((), (0, 1, 2, 3)), sp((0, 1)), sp((0, 2))])
    # witness rows x_j in V = C^8 (U coordinates 0..3, U' coordinates 4..7)
    X1 = np.stack([vv(), vv(1), vv(0, 4)])
    X2 = np.stack([vv(0, 1, 2, 4), vv(6), vv(4)])
    X3 = np.stack([vv(3), vv(4), vv(0, 6)])
    return read_only(A1, X1), read_only(A2, X2), read_only(A3, X3)


@lru_cache(maxsize=None)
def _canonical_6a():
    A = np.zeros((6, 2), dtype=complex)
    A[PF2.index((0, 1)), 0] = 1
    A[PF2.index((2, 3)), 0] = 1
    A[PF2.index((0, 2)), 1] = 1
    C = np.zeros((4, 2), dtype=complex)
    C[3, 0] = 1  # e4
    C[1, 1] = 1  # e2
    return read_only(A, C)


@lru_cache(maxsize=None)
def _canonical_6d():
    A = np.hstack([_canonical_6a()[0], np.zeros((6, 2))])  # 6A's A, two zero columns
    C = np.zeros((4, 4), dtype=complex)
    C[2, 1] = 1  # e3 (x) f2
    C[3, 3] = 1  # e4 (x) f4
    return read_only(A, C)


def _printed(canonical, key: str):
    """A copy of the printed witness when A is the printed A by allclose's
    test |A_in - A| <= PRINTED_ATOL + PRINTED_RTOL |A|, else none."""
    def witnesses(c, rng):
        for A, X in canonical():
            if A.shape == c["A"].shape and \
                    (abs(c["A"] - A) <= PRINTED_ATOL + PRINTED_RTOL * abs(A)).all():
                return [{key: X.copy()}]
        return []
    return witnesses


def _in_image_1c(c, rng):
    """v inside Im A: cancel one column of A against v."""
    A, v = c["A"], c["v"]
    alpha, beta = coeff = lstsq(A, v)
    if np.linalg.norm(A @ coeff - v) > IN_IMAGE_TOL * np.linalg.norm(v):
        return []
    f = [-1.0 / alpha, 0.0] if abs(alpha) > abs(beta) else [0.0, -1.0 / beta]
    return [{"f": np.array(f, dtype=complex)}]


def _steer_7c(c, rng):
    """W with rho(w_i)s = delta_i for a delta that makes A + delta ample."""
    A, s, minus = c["A"], c["s"], c["S-"]
    Rs = (_rho_basis() @ s).T  # rho(.)s as a map V -> S-
    if abs(c["S+"].omega(s, s)) > SPINOR_SQUARE_TOL * np.linalg.norm(s) ** 2:
        # rho(V)s is all of S-: steer the columns to a random ample target
        delta = crandom(rng, 8, 3) - A
    else:
        # rho(V)s is maximal isotropic: push the columns into an isotropic span
        U0 = orth(Rs)
        R = A - U0 @ (U0.conj().T @ A)
        F = R.T @ minus.gram @ R
        P = U0.T @ minus.gram @ R
        E = -(mp_inverse(P).T @ F.T) / 2
        delta = -U0 @ (U0.conj().T @ A) + U0 @ E
    return [{"W": lstsq(Rs, delta).T}]


# ------------------------------------------------------ input generators


def _prop1_spaces(variety_name: str):
    if variety_name == "quadric":
        return QuadricVariety(symmetric_space(4))
    if variety_name == "pf":
        return QuadricVariety(pf_space())
    if variety_name == "segre":
        return SegreVariety(3)
    raise ValueError(f"unknown variety {variety_name!r}")


@lru_cache(maxsize=None)
def _nonample_patterns(dim: int, symmetric: bool, k: int) -> tuple:
    """(rank, radical) with 0 < radical < rank <= k that fit in a space of
    dim; a skew form has an even-rank nondegenerate part."""
    return tuple((r, j) for r in range(2, min(k, dim - 1) + 1) for j in range(1, r)
                 if j <= dim - r and (symmetric or (r - j) % 2 == 0))


def _nonample_columns(space: BilinearSpace, k: int, rng) -> np.ndarray:
    """k columns whose span has a degenerate-but-nonzero restricted form."""
    patterns = _nonample_patterns(space.dim, space.symmetric, k)
    r, j = patterns[rng.integers(len(patterns))]
    M = span_with_invariants(space, r, j, rng)
    mix = crandom(rng, r, k)
    while singular_values(mix)[-1] <= MIX_RANK_TOL:  # rank below min(r, k)
        mix = crandom(rng, r, k)
    return M @ mix


def _degenerate_line(variety, rng) -> np.ndarray:
    """A random degenerate line map into the variety's ambient space."""
    for _ in range(200):
        if is_degenerate_line_map(A := variety.line(rng), variety):
            return A
    raise RuntimeError("could not build a degenerate line map")


#: the cuts of _on_cone: the 1C hypothesis, and the margin of its seeded draw
ON_CONE_TOL, ON_CONE_DRAW = 1e-10, 1e-6


def _on_cone(X, v, cut: float) -> bool:
    """v lies on the cone over X: every quadric's value c0 at v is at most cut * |v|^2.
    Both sides are read at v scaled by a power of two, which is exact and keeps
    |v|^2 from under- or overflowing; a zero v lies on the cone."""
    v = v * 2.0 ** -max(math.frexp(abs(v).max())[1], -1000)  # finite for a subnormal v
    return max(abs(c0) for c0, _, _ in X.quadrics(v, v)) <= cut * np.linalg.norm(v) ** 2


def _off_cone(X, v) -> bool:
    return not _on_cone(X, v, ON_CONE_TOL)


def _off_cone_vector(variety, rng) -> np.ndarray:
    while True:
        v = crandom(rng, variety.dim)
        if not _on_cone(variety, v, ON_CONE_DRAW):
            return v


# ------------------------------------------------------- the spec table


#: context entries built on a task's first use of them: the spaces the
#: specs name, and for Prop 1 the variety and the dimension of its space
_DERIVED = {
    "sym": lambda c: symmetric_space(c["n"]),
    "det": lambda c: det_space(),
    "pf": lambda c: pf_space(),
    "S+": lambda c: spin_module(4).half_space("+"),
    "S-": lambda c: spin_module(4).half_space("-"),
    "X": lambda c: _prop1_spaces(c["variety"]),
    "d": lambda c: c["X"].dim,
}
_rho_basis = lru_cache()(lambda: read_only(_rho(np.eye(8)))[0])  # rho(e_i) of V's basis


class _Context(dict):
    """A task's inputs and bound symbolic dimensions, plus the entries of
    _DERIVED, each built on first use."""

    def __missing__(self, name):
        self[name] = _DERIVED[name](self)
        return self[name]


class InputSpec(NamedTuple):
    """One input of a variant: its shape (a str dimension is bound on first
    use; None marks a name, not an array), the hypothesis on it as
    holds(c, x) and the words after "<name> must", and make(rng, c), which
    draws a seeded value satisfying the hypothesis."""

    shape: tuple | None
    holds: Callable | None
    must: str
    make: Callable


def _dims(c, shape) -> tuple:
    return tuple(c[d] if isinstance(d, str) else d for d in shape)


def _nonample(space: str, *shape, view=lambda M: M, unview=None) -> InputSpec:
    """The columns of view(x) span a non-ample subspace of the space; the
    seeded value is unview of as many non-ample columns as view(x) has."""
    return InputSpec(
        shape, lambda c, x: not ample(view(x), c[space]), "not be ample",
        lambda rng, c: (unview or view)(_nonample_columns(
            c[space], view(np.zeros(_dims(c, shape))).shape[1], rng)))


def _random(*shape, word: str | None = "nontrivial") -> InputSpec:
    """A random array with the hypothesis "<name> must be <word>" that it has
    a nonzero entry, whatever its scale, or with no hypothesis when word is None."""
    return InputSpec(shape, word and (lambda c, x: x.any()), f"be {word}",
                     lambda rng, c: crandom(rng, *_dims(c, shape)))


_LINE = InputSpec(("d", 2), lambda c, x: is_degenerate_line_map(x, c["X"]), "be degenerate",
                  lambda rng, c: _degenerate_line(c["X"], rng))
_OFF_CONE = InputSpec(("d",), lambda c, x: _off_cone(c["X"], x),
                      "lie off the cone over the variety",
                      lambda rng, c: _off_cone_vector(c["X"], rng))


class VariantSpec(NamedTuple):
    """One deformation variant; its callables take the task's _Context c."""

    #: name -> InputSpec, in the order the shapes and hypotheses are
    #: checked and the seeded inputs drawn
    inputs: dict
    #: (c, witness) -> the deformed object; (c, deformed) -> verified
    deformed: Callable
    predicate: Callable
    #: (c, rng) -> one random candidate witness
    draw: Callable
    #: (holds(c), message) hypotheses checked before those on the inputs
    requires: tuple = ()
    #: (c, rng) -> the canonical witnesses, tried before any random one
    witnesses: Callable = lambda c, rng: []
    #: seed -> the names and dimensions random_task fixes before drawing
    seeded: Callable = lambda seed: {}


def _ample_in(space: str):
    return lambda c, M: ample(M, c[space])


def _rank_two(c, M) -> bool:
    s = svd(M, compute_uv=False)
    return bool(s[1] > RANK_TWO_TOL * max(s[0], 1e-30))


def _prop1(second: str, inp: InputSpec, **fields) -> VariantSpec:
    """A Prop 1 variant: A a degenerate line map into the named variety."""
    return VariantSpec(
        inputs={"variety": InputSpec(None, None, "", lambda rng, c: c["variety"]),
                "A": _LINE, second: inp},
        predicate=lambda c, M: not is_degenerate_line_map(M, c["X"]),
        seeded=lambda seed: {"variety": ("quadric", "segre", "pf")[seed % 3], "p": 2},
        **fields)


def _rho(v) -> np.ndarray:
    return spin_module(4).rho_half(v, "+")


def _prop4_seeded(seed: int) -> dict:
    return dict(zip("nk", ((4, 2), (4, 3), (3, 2), (4, 4))[seed % 4]), p=2)


SPECS = {
    "1A": _prop1(  # degenerate A: C^2->V, nontrivial B: C^2->C^p -> C [A + CB]
        "B", _random("p", 2), deformed=lambda c, w: c["A"] + w["C"] @ c["B"],
        witnesses=lambda c, rng: [{"C": -c["A"] @ mp_inverse(c["B"])}],
        draw=lambda c, rng: {"C": crandom(rng, c["d"], c["p"])}),
    "1B": _prop1(  # degenerate A, B: C^2->V -> E [A + BE]
        "B", _LINE, deformed=lambda c, w: c["A"] + c["B"] @ w["E"],
        witnesses=lambda c, rng: [{"E": -mp_inverse(c["B"]) @ c["A"]}],
        draw=lambda c, rng: {"E": crandom(rng, 2, 2)}),
    "1C": _prop1(  # degenerate A, v off the cone -> f [A + v.f]
        "v", _OFF_CONE, deformed=lambda c, w: c["A"] + np.outer(c["v"], w["f"]),
        witnesses=_in_image_1c, draw=lambda c, rng: {"f": crandom(rng, 2)}),
    "4A": VariantSpec(  # non-ample A: C^k->C^n, nontrivial B: C^k->C^p -> C [A + CB]
        inputs={"A": _nonample("sym", "n", "k"), "B": _random("p", "k")},
        requires=((lambda c: c["k"] <= 3 or c["k"] == c["n"] == 4,
                   "requires k <= 3 or k = n = 4"),),
        deformed=lambda c, w: c["A"] + w["C"] @ c["B"], predicate=_ample_in("sym"),
        witnesses=lambda c, rng: [{"C": -c["A"] @ mp_inverse(c["B"])}],
        draw=lambda c, rng: {"C": crandom(rng, c["n"], c["p"])}, seeded=_prop4_seeded),
    "4B": VariantSpec(  # non-ample A: C^k->C^n, v != 0 -> f [A + v.f]
        inputs={"A": _nonample("sym", "n", "k"), "v": _random("n")},
        requires=((lambda c: c["n"] <= 4, "requires n <= 4"),),
        deformed=lambda c, w: c["A"] + np.outer(c["v"], w["f"]),
        predicate=_ample_in("sym"), draw=lambda c, rng: {"f": crandom(rng, c["k"])},
        seeded=_prop4_seeded),
    "5A": VariantSpec(  # non-ample A: C^2->C^2xC^3, non-ample B -> E [B + E o A]
        # (2, 3, 2) tensors, judged by their det-space columns; B's middle index in L2C3
        inputs={"A": _nonample("det", 2, 3, 2, view=_unfold_5a, unview=_fold_5a),
                "B": _nonample("det", 2, 3, 2, view=_unfold_5a, unview=_fold_5a)},
        deformed=lambda c, w: _unfold_5a(c["B"] + _compose_5a(w["E"], c["A"])),
        predicate=_ample_in("det"),
        draw=lambda c, rng: {"E": [(crandom(rng, 2, 2), crandom(rng, 3))]}),
    "5B": VariantSpec(  # non-ample A: L2C^3->C^2xC^2, nontrivial B -> C [A + B^C]
        inputs={"A": _nonample("det", 4, 3), "B": _random(2, 3)},
        deformed=lambda c, w: c["A"] + np.column_stack(
            [(np.outer(c["B"][:, i], w["C"][:, j])
              - np.outer(c["B"][:, j], w["C"][:, i])).reshape(4) for i, j in L2C3]),
        predicate=_ample_in("det"), draw=lambda c, rng: {"C": crandom(rng, 2, 3)}),
    "5C": VariantSpec(  # v != 0, any B in L2C^3 x C^2 -> A [B + v^A rank 2]
        inputs={"v": _random(3, word="nonzero"), "B": _random(3, 2, word=None)},
        deformed=lambda c, w: c["B"] + np.column_stack(
            [wedge_vv(c["v"], w["A"][:, 0]), wedge_vv(c["v"], w["A"][:, 1])]),
        # complete v to a basis: the wedge by v of the completion has rank 2
        witnesses=lambda c, rng: [{"A": _kernel(c["v"][None, :], 1)}],
        predicate=_rank_two,
        draw=lambda c, rng: {"A": crandom(rng, 3, 2)}),
    "6A": VariantSpec(  # non-ample A: C^2->L2C^4, non-ample B -> C [B + A^C]
        # B: det coordinates, rows (alpha, beta), x L3C^4
        inputs={"A": _nonample("pf", 6, 2), "B": _nonample("det", 4, 4)},
        deformed=lambda c, w: c["B"] + np.stack(
            [wedge_bv4(c["A"][:, a], w["C"][:, b]) for a in range(2) for b in range(2)]),
        predicate=_ample_in("det"), draw=lambda c, rng: {"C": crandom(rng, 4, 2)},
        witnesses=_printed(lambda: [_canonical_6a()], "C")),
    "6B": VariantSpec(  # non-ample A: L2C^4->C^2, non-ample B -> C [A + B^C]
        # B: det coordinates x C^4; B^C contracts the second det factor with C
        inputs={"A": _nonample("pf", 2, 6, view=np.transpose), "B": _nonample("det", 4, 4)},
        deformed=lambda c, w: (c["A"] + np.column_stack(
            [c["B"][:, p].reshape(2, 2) @ w["C"][:, q]
             - c["B"][:, q].reshape(2, 2) @ w["C"][:, p] for p, q in PF2])).T,
        predicate=_ample_in("pf"), draw=lambda c, rng: {"C": crandom(rng, 2, 4)}),
    "6C": VariantSpec(  # non-ample A: C^2->L2C^4, w != 0 -> B [A + w^B]
        inputs={"A": _nonample("pf", 6, 2), "w": _random(4, word="nonzero")},
        deformed=lambda c, w: c["A"] + np.column_stack(
            [wedge_vv(c["w"], w["B"][:, 0]), wedge_vv(c["w"], w["B"][:, 1])]),
        predicate=_ample_in("pf"), draw=lambda c, rng: {"B": crandom(rng, 4, 2)}),
    "6D": VariantSpec(  # non-ample A in C^4xL2C^4, non-ample B -> C [B + A^C]
        # A: columns a_i in L2C^4(f); B in L2C^4(e) x L3C^4(f); C: rows c_i
        inputs={"A": _nonample("pf", 6, 4), "B": _nonample("pf", 6, 4)},
        deformed=lambda c, w: c["B"] + np.stack(
            [wedge_bv4(c["A"][:, i], w["C"][j]) - wedge_bv4(c["A"][:, j], w["C"][i])
             for i, j in PF2]),
        predicate=_ample_in("pf"), draw=lambda c, rng: {"C": crandom(rng, 4, 4)},
        witnesses=_printed(lambda: [_canonical_6d()], "C")),
    "6E": VariantSpec(  # non-ample A in C^4xL2C^4, u != 0 in C^4(f) -> C [A + C^u rowwise]
        inputs={"A": _nonample("pf", 6, 4), "u": _random(4, word="nonzero")},
        deformed=lambda c, w: c["A"] + np.column_stack(
            [wedge_vv(w["C"][i], c["u"]) for i in range(4)]),
        predicate=_ample_in("pf"), draw=lambda c, rng: {"C": crandom(rng, 4, 4)}),
    "7A": VariantSpec(  # non-ample A in C^k x S+, non-ample B (k=2,3) -> v [B + rho(v)A]
        inputs={"A": _nonample("S+", 8, "k"), "B": _nonample("S-", 8, "k")},
        requires=((lambda c: c["k"] in (2, 3), "k must be 2 or 3"),),
        deformed=lambda c, w: c["B"] + _rho(w["v"]) @ c["A"],
        predicate=_ample_in("S-"), draw=lambda c, rng: {"v": crandom(rng, 8)},
        seeded=lambda seed: {"k": 2 if seed % 2 == 0 else 3}),
    "7B": VariantSpec(  # non-ample A in C^3 x S+, non-ample B in L2C^3 x S- -> x [B + D(x)]
        # slot q of B is the pair missing q
        inputs={"A": _nonample("S+", 8, 3), "B": _nonample("S-", 8, 3)},
        deformed=lambda c, w: c["B"] + np.column_stack(
            [_rho(w["x"][j]) @ c["A"][:, i] - _rho(w["x"][i]) @ c["A"][:, j]
             for i, j in L2C3[::-1]]),
        predicate=_ample_in("S-"), draw=lambda c, rng: {"x": crandom(rng, 3, 8)},
        witnesses=_printed(_canonical_7b_data, "x")),
    "7C": VariantSpec(  # non-ample A in C^3 x S-, nontrivial s in S+ -> W [A + rho(w_i)s]
        inputs={"A": _nonample("S-", 8, 3), "s": _random(8)},
        deformed=lambda c, w: c["A"] + np.column_stack(
            [_rho(w["W"][i]) @ c["s"] for i in range(3)]),
        predicate=_ample_in("S-"), draw=lambda c, rng: {"W": crandom(rng, 3, 8)},
        witnesses=_steer_7c),
}

VARIANTS = tuple(SPECS)


# ----------------------------------------------------------- the search


class DeformationTask(NamedTuple):
    variant: str
    inputs: dict
    seed: int = 0


class DeformResult(NamedTuple):
    variant: str
    witness: dict
    verified: bool
    restarts: int


def _context(variant: str, spec: VariantSpec, raw: dict) -> _Context:
    """The inputs as complex arrays ({"re": ..., "im": ...} is re + 1j im) plus the
    dimensions they bind.  A missing input, one that is not numeric, has a NaN or infinite
    entry, is subnormal (nonzero, with no normal |entry|), has re and im of two shapes or
    is off its declared shape is a ValueError naming it, as is raw that is not a dict or
    that names an input the variant does not declare."""
    if not isinstance(raw, dict):
        raise ValueError(f"variant {variant}: inputs must map input names to values, "
                         f"got {type(raw).__name__}")
    for key in spec.inputs:
        if key not in raw:
            raise ValueError(f"variant {variant}: missing input {key!r}")
    unknown = sorted(map(str, set(raw) - set(spec.inputs)))
    if unknown:
        raise ValueError(f"variant {variant}: unknown inputs {unknown}; "
                         f"it takes {sorted(spec.inputs)}")
    c = _Context()
    for key, inp in spec.inputs.items():
        if inp.shape is None:
            c[key] = raw[key]
            continue
        v = raw[key]
        try:
            parts = ([np.asarray(v[p], dtype=float) for p in ("re", "im")]
                     if isinstance(v, dict) and set(v) == {"re", "im"}
                     else [np.asarray(v, dtype=complex)])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"variant {variant}: input {key!r} is not a complex "
                             f"array ({exc})") from None
        if parts[0].shape != parts[-1].shape:  # numpy would broadcast re against im
            raise ValueError(f"variant {variant}: input {key!r} has re of shape "
                             f"{parts[0].shape} and im of shape {parts[1].shape}")
        c[key] = parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0]
        top = float(np.maximum.reduce(abs(c[key]), None, initial=0.0))  # NaN if any entry is
        if not top < math.inf:
            raise ValueError(f"variant {variant}: input {key!r} has non-finite entries")
        if 0 < top < sys.float_info.min:  # LAPACK does not converge on such inputs
            raise ValueError(f"variant {variant}: input {key!r} is subnormal ({top:.3g} at most)")
        # the declared shape with every dimension known so far filled in
        want = tuple(c[d] if isinstance(d, str) and (d in c or d in _DERIVED) else d
                     for d in inp.shape)
        have = c[key].shape
        if len(have) != len(want) or any(isinstance(d, int) and d != n
                                         for n, d in zip(have, want)):
            expected = str(want).replace("'", "")  # free dimensions by name
            raise ValueError(f"variant {variant}: input {key!r} has shape {have}, "
                             f"expected {expected}")
        c.update((d, n) for n, d in zip(have, want) if isinstance(d, str))
    return c


def deform(task: DeformationTask) -> DeformResult:
    """Search for the variant's witness; verified means the deformed object
    was re-checked against the ampleness / rank / degeneracy predicate."""
    if task.variant not in SPECS:
        raise ValueError(f"unknown variant {task.variant!r}")
    spec = SPECS[task.variant]
    c = _context(task.variant, spec, task.inputs)
    _check_requires(spec, c)
    for key, inp in spec.inputs.items():
        if inp.holds and not inp.holds(c, c[key]):
            raise HypothesesNotMet(f"{key} must {inp.must}")
    rng = np.random.Generator(np.random.PCG64(task.seed))  # default_rng's, built faster
    return _run_search(task.variant, spec.witnesses(c, rng), lambda: spec.draw(c, rng),
                       lambda w: spec.predicate(c, spec.deformed(c, w)), MAX_RESTARTS)


def _check_requires(spec: VariantSpec, c: _Context) -> None:
    for holds, message in spec.requires:
        if not holds(c):
            raise HypothesesNotMet(message)


def _run_search(variant, deterministic, random_gen, verify, max_restarts):
    """The deterministic witnesses, then one random candidate per restart."""
    for witness in deterministic:
        if verify(witness):
            return DeformResult(variant, witness, True, 0)
    for r in range(1, max_restarts + 1):
        witness = random_gen()
        if verify(witness):
            return DeformResult(variant, witness, True, r)
    return DeformResult(variant, {}, False, max_restarts)


def _generated(variant: str, seed: int, fixed: dict) -> DeformationTask:
    spec = SPECS[variant]
    c = _Context(fixed)
    _check_requires(spec, c)  # the fixed dimensions, before any draw
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    inputs = {key: inp.make(rng, c) for key, inp in spec.inputs.items()}
    return DeformationTask(variant, inputs, seed=seed)


def random_task(variant: str, seed: int) -> DeformationTask:
    """A seeded random input satisfying the variant's hypotheses.

    For variant '7A' the tensor width alternates between k=2 and k=3 with
    the seed; random_task_7a fixes k.  A fixed dimension the variant does
    not allow is a HypothesesNotMet, raised before any draw.
    """
    if variant not in SPECS:
        raise ValueError(f"unknown variant {variant!r}")
    return _generated(variant, seed, SPECS[variant].seeded(seed))


def random_task_7a(k: int, seed: int) -> DeformationTask:
    return _generated("7A", seed, {"k": k})
