"""Output checks, computed apart from the program.

Each checker returns a list of problems; an empty list means the output
passed.  None of them compares against a stored copy of earlier output:
they use closed forms, digests of the bundled files, the bundled table,
exact algebraic properties, or an SVD written here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Closed-form numbers of positive roots, written here rather than imported.
CLOSED_FORM = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

# The 25 types a verify-all report counts roots for.
REPORT_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
                + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# Rank and form decisions in check_ample keep six decades between what they
# keep and what they drop.  Over seeds 100-3099 of 4A and 4B the witnesses
# came no closer than 3.1 decades (rank) and 2 decades (Gram) to these gates.
KEEP, DROP = 1e-6, 1e-12

SUM_TABLE_SAMPLE = 2000


def file_digests(data_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
            for name in ("cases.txt", "table.txt")}


def read_table(path: Path) -> set[tuple[str, tuple[int, ...]]]:
    """The bundled table as {(group, sorted black vertices)}."""
    entries = set()
    for line in path.read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == "entry":
            entries.add((fields[2], tuple(sorted(int(x) for x in fields[4].split(",")))))
    return entries


# ---------------------------------------------------------------- verify_all


def check_report(text: str, rc: int, digests: dict[str, str]) -> tuple[list[str], list[str]]:
    """(anchors of the failing lines, problems) for one `verify-all --json`
    run.  A failing line is the report's verdict; a problem is output that
    disagrees with the checks here."""
    try:
        report = json.loads(text)
        lines = {line["anchor"]: line for line in report["lines"]}
        passed = report["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable report"], [f"unreadable report: {exc}"]
    problems = []
    if passed != all(line["ok"] for line in lines.values()) or (rc == 0) != passed:
        problems.append(f"exit code {rc} disagrees with passed={passed}")
    for kind, rank in REPORT_TYPES:
        line = lines.get(f"root count {kind}{rank}")
        want = CLOSED_FORM[kind](rank)
        if line is None:
            problems.append(f"no root count line for {kind}{rank}")
        elif not (line["ok"] and line["detail"].split()[:1] == [str(want)]):
            problems.append(f"root count {kind}{rank}: {line['detail']!r}, closed form {want}")
    for name, digest in digests.items():
        line = lines.get(f"data {name}")
        if line is None or line["detail"] != f"sha256 {digest}":
            problems.append(f"data {name}: checksum line does not match the file")
    return [anchor for anchor, line in lines.items() if not line["ok"]], problems


# -------------------------------------------------------------------- deform


def check_ample(M: np.ndarray, gram: np.ndarray) -> list[str]:
    """Ampleness of span(M) under x^T gram y, by an SVD written here.

    Ample means the restricted Gram is nondegenerate or zero.  A singular
    value between DROP and KEEP (relative) is an undecided verdict.
    """
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0:
        return []
    rank = int(np.sum(s > KEEP * s[0]))
    if np.any((s > DROP * s[0]) & (s <= KEEP * s[0])):
        return [f"span rank undecided: singular values {s / s[0]}"]
    Q = U[:, :rank]
    t = np.linalg.svd(Q.T @ gram @ Q, compute_uv=False)
    scale = np.linalg.norm(gram, 2)
    if t[-1] > KEEP * scale or t[0] <= DROP * scale:
        return []
    return [f"not ample: restricted Gram singular values {t / scale}"]


def check_deform_witness(variant: str, inputs: dict, witness: dict) -> list[str]:
    """Recompute the deformed tensor of 4A (A + C B) or 4B (A + v f^T)."""
    if variant == "4A":
        M = inputs["A"] + witness["C"] @ inputs["B"]
    elif variant == "4B":
        M = inputs["A"] + np.outer(inputs["v"], witness["f"])
    else:
        return []
    return [f"{variant}: {p}" for p in check_ample(M, np.eye(M.shape[0]))]


# --------------------------------------------------------------------- scale


def check_root_system(rs, rng: np.random.Generator) -> list[str]:
    """Positive-root count and the root-sum table of one root system."""
    name = f"{rs.kind}{rs.rank}"
    pos = np.array(rs.positive_roots, dtype=np.int64)
    problems = []
    want = CLOSED_FORM[rs.kind](rs.rank)
    if len(pos) != want:
        problems.append(f"{name}: {len(pos)} positive roots, closed form {want}")
    table = np.asarray(rs.root_sum_is_root)
    if table.shape != (len(pos), len(pos)):
        return problems + [f"{name}: sum table has shape {table.shape}"]
    if rs.kind in "ADE":
        # Simply laced: a root of height h is a sum of two positive roots
        # in exactly h - 1 unordered ways.
        want = 2 * int(np.sum(pos.sum(axis=1) - 1))
        if int(table.sum()) != want:
            problems.append(f"{name}: sum table has {int(table.sum())} entries, expected {want}")
    else:
        # Every entry of a small table; distinct entries drawn from a large one.
        roots = set(rs.roots)
        n = len(pos)
        cells = (np.arange(n * n) if n * n <= SUM_TABLE_SAMPLE
                 else rng.choice(n * n, size=SUM_TABLE_SAMPLE, replace=False))
        for i, j in zip(*np.divmod(cells, n)):
            if bool(table[i, j]) != (tuple(int(x) for x in pos[i] + pos[j]) in roots):
                problems.append(f"{name}: sum table entry ({i}, {j}) is wrong")
                break
    return problems


def check_grading(g, irreducible: list[bool]) -> list[str]:
    """Weight components partition the roots by their white coefficients,
    and every positive component has exactly one root that no Levi simple
    root raises, which the program must report as irreducible."""
    rs = g.diagram.rs
    black = sorted(g.diagram.black)
    white = [v - 1 for v in range(1, rs.rank + 1) if v not in g.diagram.black]
    roots = set(rs.roots)
    name = f"{rs.kind}{rs.rank}/{','.join(map(str, black))}"
    seen = list(g.zero_component)
    if any(r[i] for r in g.zero_component for i in white):
        return [f"{name}: zero component holds a root of nonzero weight"]
    for w, comp in g.components.items():
        if any(tuple(r[i] for i in white) != tuple(w) for r in comp):
            return [f"{name}: component {w} holds a root of another weight"]
        seen += comp
    if len(seen) != len(roots) or set(seen) != roots:
        return [f"{name}: components do not partition the roots"]
    positive = [w for w in g.components if min(w) >= 0]
    if sorted(positive) != sorted(g.positive_weights) or len(irreducible) != len(positive):
        return [f"{name}: positive weights disagree with the components"]
    for w, irr in zip(g.positive_weights, irreducible):
        tops = sum(not any(r[:b - 1] + (r[b - 1] + 1,) + r[b:] in roots for b in black)
                   for r in g.components[w])
        if tops != 1 or irr is not True:
            return [f"{name}: component {w} has {tops} highest roots, program says {irr}"]
    return []


def check_scan(nonreduced: dict[tuple[str, tuple[int, ...]], int],
               table: set[tuple[str, tuple[int, ...]]]) -> list[str]:
    """The E7/E8 colourings with >= 2 non-reduced weights are the table."""
    found = {key for key, n in nonreduced.items() if key[0] in ("E7", "E8") and n >= 2}
    problems = []
    if len(found) != 59:
        problems.append(f"{len(found)} E7/E8 colourings have >= 2 non-reduced weights, not 59")
    if found != table:
        problems.append(f"differs from the table: {sorted(found ^ table)[:5]}")
    return problems


def check_rho(m: int, v: np.ndarray, R: np.ndarray, rng: np.random.Generator) -> list[str]:
    """rho(v)^2 = (v, v) Id, tested on four random vectors, with a residual
    relative to ||R||^2; (v, v) = v_U . v_U' in the split form."""
    dim = 1 << m
    if R.shape != (dim, dim):
        return [f"m={m}: rho(v) has shape {R.shape}"]
    X = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    p = v[:m] @ v[m:]
    resid = np.linalg.norm(R @ (R @ X) - p * X)
    scale = (np.linalg.norm(R) ** 2 + abs(p)) * np.linalg.norm(X)
    if not resid <= 1e-13 * scale:
        return [f"m={m}: rho(v)^2 residual {resid / scale:.2e} relative"]
    return []


def check_half_form(m: int, side: str, G: np.ndarray) -> list[str]:
    """The form on S+ or S- is symmetric (m = 0 mod 4) or skew (m = 2 mod 4)
    and nondegenerate, exactly."""
    half = 1 << (m - 1)
    if G.shape != (half, half):
        return [f"m={m}: S{side} form has shape {G.shape}"]
    problems = []
    sign = 1 if m % 4 == 0 else -1
    if not np.array_equal(G, sign * G.T):
        problems.append(f"m={m}: S{side} form is not {'symmetric' if sign > 0 else 'skew'}")
    # The form pairs each basis element with its complement: one unit per row.
    if not (np.all(np.count_nonzero(G, axis=1) == 1) and np.all(np.abs(G[G != 0]) == 1)):
        problems.append(f"m={m}: S{side} form is not a signed permutation")
    return problems


def check_halves_orthogonal(m: int, basis, gram: np.ndarray) -> list[str]:
    """S+ and S- are exactly orthogonal in the full Gram."""
    even = [k for k, s in enumerate(basis) if len(s) % 2 == 0]
    odd = [k for k, s in enumerate(basis) if len(s) % 2 == 1]
    if (gram.shape != (1 << m, 1 << m) or len(even) != 1 << (m - 1)
            or np.any(gram[np.ix_(even, odd)]) or np.any(gram[np.ix_(odd, even)])):
        return [f"m={m}: S+ and S- are not orthogonal"]
    return []
