"""Command-line surface: verification suites with text or JSON reports.

Every report line carries the identifier of the item it verifies (case
id, table entry, deformation variant, identity name) so failures are
traceable to a single claim.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import ampleness, classify, cxlinalg, mpchar, walkdiag
from .cxlinalg import crandom
from .grading import ColouredDiagram, compute_grading
from .report import Report
from .rootsys import POSITIVE_ROOT_COUNTS, ROOT_COUNT_TYPES, build_root_system, parse_type
from .spinor import rho_square_defect, spin_module

#: The cuts on a report's worst residual: characteristic equations; spinor and Penrose identities.
CHARACTERISTIC_TOL, IDENTITY_TOL = 1e-9, 1e-10


def parse_diagram(s: str) -> ColouredDiagram:
    """Parse '<TYPE>/<black-list>' such as 'E7/1,3,5,7' or 'G2/'."""
    if "/" not in s:
        raise ValueError(f"{s!r}: expected '<TYPE>/<black-list>' (position {len(s)})")
    type_part, _, black_part = s.partition("/")
    rs = build_root_system(*parse_type(type_part))
    black: set[int] = set()
    if black_part.strip():
        start = len(type_part) + 1  # position of the current token in s
        for tok in black_part.split(","):
            pos = start + len(tok) - len(tok.lstrip())
            start += len(tok) + 1
            if not tok.strip().isdigit():
                raise ValueError(f"{s!r}: bad vertex {tok!r} (position {pos})")
            v = int(tok)
            if v in black:
                raise ValueError(f"{s!r}: duplicate vertex {v}")
            black.add(v)
    return ColouredDiagram(rs, frozenset(black))


def _parse_weights(s: str) -> list[tuple[int, ...]]:
    """Semicolon-separated weights of non-negative coordinates, e.g. '1,0;0,1'."""
    return [tuple(map(_non_negative_int, part.split(","))) for part in s.split(";") if part]


# ------------------------------------------------------------ subcommands


def cmd_grade(args) -> int:
    g = compute_grading(parse_diagram(args.diagram))
    nonred = g.positive_nonreduced_weights()
    rows = zip(g.positive_weights, g.component_sizes)
    if not args.json:
        print(f"{g.diagram}: white vertices {list(g.diagram.white)}")
        for w, size in rows:
            print(f"  {w}  dim {size}{'' if g.is_reduced(w) else '  non-reduced'}")
        print(f"levi roots: {g.levi_size}; non-reduced positive weights: {len(nonred)}")
        return 0
    # The bytes of json.dumps(payload, indent=2), whose pure-Python encoder is
    # most of a large run: the weights' records are written one at a time.
    head = json.dumps({"diagram": str(g.diagram), "white": list(g.diagram.white)}, indent=2)
    tail = json.dumps({"nonreduced": [list(w) for w in nonred], "levi_roots": g.levi_size},
                      indent=2)
    write, digits = sys.stdout.write, bytes.maketrans(bytes(range(10)), b"0123456789")
    write(head[:-2] + ',\n  "positive_weights": [')
    for k, (w, size) in enumerate(rows):
        # A weight's coefficients are at most 6: one digit each, as one byte string.
        weight = ",\n        ".join(bytes(w).translate(digits).decode())
        write(f'{"," if k else ""}\n    {{\n      "weight": [\n        {weight}\n      ],\n'
              f'      "size": {size},\n      "reduced": {str(g.is_reduced(w)).lower()},\n'
              f'      "irreducible": {str(g.is_irreducible_component(w)).lower()}\n    }}')
    write("\n  ]," + tail[1:] + "\n")
    return 0


# `classify` in-process on a 2-core AMD EPYC: A16 0.8 s and 83 MB, B16 1.2 s and 83 MB,
# A17 1.7 s and 114 MB, B17 2.7 s and 126 MB, A18 3.8 s and 192 MB; each rank doubles the colourings.
CLASSIFY_RANK_MAX = 16


def cmd_classify(args) -> int:
    kind, rank = parse_type(args.type)
    if rank > CLASSIFY_RANK_MAX:
        raise ValueError(f"classify {kind}{rank}: the scan covers {2 ** rank - 1} colourings; "
                         f"the rank must be at most {CLASSIFY_RANK_MAX}")
    records = classify.scan_parabolics(build_root_system(kind, rank))
    rows = [{"black": list(r.black), "nonreduced": r.nonreduced,
             "basic_lemma_weakly_ample": r.basic_lemma_weakly_ample}
            for r in records]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            print(f"black={','.join(map(str, r['black'])) or '-':16s} "
                  f"nonreduced={r['nonreduced']:3d} "
                  f"weakly-ample-by-count={r['basic_lemma_weakly_ample']}")
        print(f"{len(rows)} colourings")
    return 0


def cmd_diagram(args) -> int:
    g = compute_grading(parse_diagram(args.diagram))
    wd = walkdiag.build_weight_diagram(g, args.twisting)
    payload = {
        "diagram": str(g.diagram),
        "twisting": [list(t) for t in wd.twisting],
        "nonreduced": [list(w) for w in wd.nonreduced],
        "rubbish": [list(w) for w in wd.rubbish],
        "arrows": [[list(a), list(m), list(b)] for a, m, b in wd.arrows],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{payload['diagram']}")
        print(f"  non-reduced: {[tuple(w) for w in payload['nonreduced']]}")
        print(f"  rubbish:     {[tuple(w) for w in payload['rubbish']]}")
        for a, m, b in wd.arrows:
            print(f"  {a} --{m}--> {b}")
    return 0


def cmd_verify_case(args) -> int:
    cases = walkdiag.load_cases()
    report = Report()
    if args.all:
        wanted = sorted(cases)
    else:
        if args.case not in cases:
            raise ValueError(f"unknown case {args.case!r}; have {sorted(cases)}")
        wanted = [args.case]
    for cid in wanted:
        for l in walkdiag.verify_case(cases[cid]).lines:
            report.add(f"case {cid}: {l['anchor']}", l["ok"], "" if l["ok"] else l["detail"])
        entry = classify.match_table_entry(cases[cid].group, cases[cid].black)
        report.add(f"case {cid}: colouring matches table entry", entry is not None,
                   f"entry {entry}")
    return report.emit(args.json)


def cmd_check_table(args) -> int:
    return classify.check_table().emit(args.json)


def cmd_mp_triple(args) -> int:
    x = mpchar.random_block_nilpotent(np.random.default_rng(args.seed), args.blocks)
    triples = mpchar.gl_hermitian_characteristic(x)
    report = Report()
    for (i, j), t in sorted(triples.items()):
        report.add(f"block ({i},{j}) sl2 relations", t.accepted(),
                   "residuals " + ", ".join(f"{r:.2e}" for r in t.residuals))
    return report.emit(args.json)


def cmd_lemma(args) -> int:
    space = (cxlinalg.symmetric_space(args.w) if args.form == "sym"
             else cxlinalg.symplectic_space(args.w))
    worst = mpchar.lemma_worst_residual(np.random.default_rng(args.seed), space, args.u,
                                        args.trials)
    report = Report()
    report.add(f"characteristic equations ({args.form}, {args.trials} trials)",
               worst < CHARACTERISTIC_TOL, f"worst residual {worst:.2e}")
    return report.emit(args.json)


def cmd_deform(args) -> int:
    if args.k is not None and (args.variant != "7A" or args.input):
        raise ValueError(f"--k {args.k}: k applies only to a random 7A task")
    if args.input:
        try:
            with open(args.input) as fh:
                inputs = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise ValueError(f"--input {args.input}: {exc}") from None
        task = ampleness.DeformationTask(args.variant, inputs, seed=args.seed)
    elif args.k is not None:
        task = ampleness.random_task_7a(args.k, args.seed)
    else:
        task = ampleness.random_task(args.variant, args.seed)
    res = ampleness.deform(task)

    def jsonable(v):
        if isinstance(v, (list, tuple)):
            return [jsonable(x) for x in v]
        arr = np.asarray(v)  # every witness is complex
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}

    payload = {
        "variant": res.variant,
        "verified": res.verified,
        "restarts": res.restarts,
        "witness": {k: jsonable(v) for k, v in res.witness.items()},
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"variant {res.variant}: verified={res.verified} restarts={res.restarts}")
        for k in res.witness:
            print(f"  witness component {k!r}")
    return 0 if res.verified else 1


# `spinor --m` on a 2-core 2.1 GHz Xeon: 2.5 s at m = 9, 12 s at m = 10, 88 s at m = 11.
SPINOR_M_MAX = 9


def cmd_spinor(args) -> int:
    if args.m > SPINOR_M_MAX:
        raise ValueError(f"--m {args.m}: the spinor checks multiply 2^m x 2^m matrices; "
                         f"m must be at most {SPINOR_M_MAX}")
    sm = spin_module(args.m)
    worst = rho_square_defect(np.random.default_rng(args.seed), sm, 100)
    report = Report()
    report.add(f"spinor m={args.m}: rho(v)^2 = (v,v) Id", worst < IDENTITY_TOL,
               f"worst residual {worst:.2e}")
    if args.m % 2 == 0:
        Gp = sm.half_space("+").gram
        want_sym = args.m % 4 == 0
        ok = np.array_equal(Gp, Gp.T) if want_sym else np.array_equal(Gp, -Gp.T)
        report.add(f"spinor m={args.m}: form {'symmetric' if want_sym else 'skew'} on S+", ok)
        report.add(f"spinor m={args.m}: dim S+ = {2 ** (args.m - 1)}",
                   len(sm.even_indices) == 2 ** (args.m - 1))
    return report.emit(args.json)


def cmd_verify_all(args) -> int:
    trials = args.trials
    rng = np.random.default_rng(args.seed)
    report = Report()

    for fname in ("cases.txt", "table.txt"):
        report.add(f"data {fname}", True, f"sha256 {walkdiag.data_checksum(fname)}")

    for kind, rank in ROOT_COUNT_TYPES:
        rs = build_root_system(kind, rank)
        want = POSITIVE_ROOT_COUNTS[kind](rank)
        report.add(f"root count {kind}{rank}", len(rs.positive_array) == want,
                   f"{len(rs.positive_array)} vs {want}")

    for cid, r in walkdiag.verify_all_cases().items():
        report.add(f"case {cid}", r.passed, "; ".join(r.failures()))

    table = classify.check_table()
    report.add("table: all 59 entries have >= 2 non-reduced weights", table.passed,
               "; ".join(table.failures()))
    listed = {(e.group, tuple(sorted(e.black))) for e in classify.load_table()}
    found = {(group, r.black) for group in ("E7", "E8")
             for r in classify.scan_parabolics(build_root_system(*parse_type(group)))
             if r.nonreduced >= 2}
    report.add("table: the 59 entries are exactly the E7/E8 colourings with >= 2 "
               "non-reduced weights", found == listed,
               f"{len(found)} found, {len(found - listed)} unlisted, {len(listed - found)} missing")

    worst = [0.0] * 4
    for _ in range(trials):
        m, n = rng.integers(1, 9, size=2)
        F = crandom(rng, m, n)
        P = cxlinalg.mp_inverse(F)
        worst = [max(w, r) for w, r in zip(worst, cxlinalg.penrose_residuals(F, P))]
    report.add(f"penrose equations ({trials} trials)", max(worst) < IDENTITY_TOL,
               "worst " + ", ".join(f"{w:.1e}" for w in worst))

    bad = mpchar.gl_characteristic_trials(rng, trials)[0]
    report.add(f"gl characteristic ({trials} trials)", bad == 0, f"{bad} rejected")

    for form, space in (("sym", cxlinalg.symmetric_space(6)),
                        ("skew", cxlinalg.symplectic_space(6))):
        w = mpchar.lemma_worst_residual(rng, space, 4, trials)
        report.add(f"characteristic equations ({form}, {trials} trials)", w < CHARACTERISTIC_TOL,
                   f"worst {w:.2e}")

    w = rho_square_defect(rng, spin_module(4), trials)
    report.add(f"spinor rho(v)^2 = (v,v) Id ({trials} trials)", w < IDENTITY_TOL, f"worst {w:.2e}")

    for variant in ampleness.VARIANTS:
        ok, errors = 0, []
        n_trials = max(1, trials // 10)
        for seed in range(args.seed * 1000, args.seed * 1000 + n_trials):
            try:
                ok += ampleness.deform(ampleness.random_task(variant, seed)).verified
            except (RuntimeError, ampleness.HypothesesNotMet) as exc:  # an unverified trial
                errors.append(f"{variant} seed {seed}: {type(exc).__name__}: {exc}")
        report.add(f"deform {variant} ({n_trials} trials)", ok == n_trials,
                   "; ".join([f"{ok}/{n_trials} verified", *errors]))
    return report.emit(args.json)


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


_positive_int = functools.partial(_int_at_least, low=1)
_non_negative_int = functools.partial(_int_at_least, low=0)


def _block_dims(text: str) -> tuple[int, ...]:
    """Two or more comma-separated block dimensions, each at least 1."""
    dims = tuple(_positive_int(x) for x in text.split(","))
    if len(dims) < 2:
        raise argparse.ArgumentTypeError(f"needs at least two blocks, got {text!r}")
    return dims


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="parabolics",
                                description="Parabolic grading and characteristic checks")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true")
        return sp

    sp = add("grade", cmd_grade, help="grading of a coloured diagram")
    sp.add_argument("diagram", help="e.g. E7/1,3,4,6,7")

    sp = add("classify", cmd_classify, help="scan all proper colourings of a type")
    sp.add_argument("type", help="e.g. E8")

    sp = add("diagram", cmd_diagram, help="weight diagram for chosen twisting weights")
    sp.add_argument("diagram")
    sp.add_argument("--twisting", required=True, type=_parse_weights,
                    help="semicolon-separated weights, e.g. '1,0;0,1'")

    sp = add("verify-case", cmd_verify_case, help="verify bundled cases")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("--case")
    which.add_argument("--all", action="store_true")

    add("check-table", cmd_check_table, help="non-reduced counts for the 59 entries")

    sp = add("mp-triple", cmd_mp_triple, help="block nilpotent sl2 triples")
    sp.add_argument("--blocks", type=_block_dims, default="2,3,2")
    sp.add_argument("--seed", type=_non_negative_int, default=0)

    sp = add("lemma", cmd_lemma, help="solve the characteristic equations")
    sp.add_argument("--u", type=_positive_int, default=4)
    sp.add_argument("--w", type=_positive_int, default=6)
    sp.add_argument("--form", choices=("sym", "skew"), default="sym")
    sp.add_argument("--trials", type=_positive_int, default=100)
    sp.add_argument("--seed", type=_non_negative_int, default=0)

    sp = add("deform", cmd_deform, help="run one deformation search")
    sp.add_argument("--variant", required=True, choices=ampleness.VARIANTS)
    sp.add_argument("--seed", type=_non_negative_int, default=0)
    sp.add_argument("--k", type=int, help="tensor width for 7A")
    sp.add_argument("--input", help="JSON file with explicit inputs")

    sp = add("spinor", cmd_spinor, help="spinor identities")
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--seed", type=_non_negative_int, default=0)

    sp = add("verify-all", cmd_verify_all, help="run every verification suite")
    sp.add_argument("--seed", type=_non_negative_int, default=0)
    sp.add_argument("--trials", type=_positive_int, default=100)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # InvalidTypeError and CaseDataError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
