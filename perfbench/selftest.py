"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and feeds
each checker one corrupted output to show that it rejects it.  Exits 1 if
anything is not as expected.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from types import SimpleNamespace

import run  # sets the BLAS thread variables before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402

TINY = run.Size(report_seeds=2, import_probes=1, grade_types=("A4", "B3", "C3", "D5", "F4", "G2"),
                grade_colourings=2, scan_types=("E6",), spinor_ms=(4, 5, 6), spinor_vectors=1)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_runs() -> None:
    for name in run.WORKLOADS:
        for trace in (False, True):
            result, r = run.run_workload(name, seed=0, seconds=0, trace=trace, size=TINY)
            # verify_all: seeds 0 and 1, twice; seed 1 is the known failing report
            want_failed = result["attempted"] // 2 if name == "verify_all" else 0
            expect(result["correct"] and result["attempted"] >= 1
                   and result["failed"] == want_failed and all(
                       m["value"] >= 0 for m in result["metrics"].values()),
                   f"tiny {name} trace={int(trace)}: {json.dumps(result)[:160]}")
            if r.problems:
                print("     " + "\n     ".join(r.problems[:5]))


def corrupted() -> None:
    from parabolics import ampleness, build_root_system, cli, grade
    from parabolics.spinor import spin_module

    # verify_all: a root count and a checksum line
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify-all", "--json", "--trials", "2"])
    text = buf.getvalue()
    digests = checks.file_digests(run.DATA)
    expect(checks.check_report(text, rc, digests) == ([], []), "report: clean report accepted")
    report = json.loads(text)
    for line in report["lines"]:
        if line["anchor"] == "root count D5":
            line["detail"] = "21 vs 21"
    expect(checks.check_report(json.dumps(report), rc, digests)[1] != [],
           "report: wrong root count rejected")
    bad_digests = dict(digests, **{"table.txt": "0" * 64})
    expect(checks.check_report(text, rc, bad_digests)[1] != [], "report: wrong checksum rejected")

    # deform: 4A with the zero witness leaves A, which is not ample
    task = ampleness.random_task("4A", 123)
    res = ampleness.deform(task)
    expect(checks.check_deform_witness("4A", task.inputs, res.witness) == [],
           "deform: found 4A witness accepted")
    zero = {"C": np.zeros_like(res.witness["C"])}
    expect(checks.check_deform_witness("4A", task.inputs, zero) != [],
           "deform: non-ample 4A witness rejected")

    # scale: sum tables (counted for D, every entry for B3), gradings, scans
    rng = np.random.default_rng(0)
    for name in ("D5", "B3"):
        rs = build_root_system(name[0], int(name[1:]))
        table = rs.root_sum_is_root.copy()
        table[0, -1] = not table[0, -1]
        fake = SimpleNamespace(kind=rs.kind, rank=rs.rank, roots=rs.roots,
                               positive_roots=rs.positive_roots, root_sum_is_root=table)
        expect(checks.check_root_system(rs, rng) == [], f"scale: {name} sum table accepted")
        expect(checks.check_root_system(fake, rng) != [], f"scale: flipped {name} entry rejected")
    g = grade("E7", (1, 3, 5, 7))
    irr = [g.is_irreducible_component(w) for w in g.positive_weights]
    expect(checks.check_grading(g, irr) == [], "scale: E7 grading accepted")
    expect(checks.check_grading(g, [False] + irr[1:]) != [], "scale: reducible verdict rejected")
    w0, w1 = g.positive_weights[:2]
    moved = dict(g.components)
    moved[w0], moved[w1] = moved[w0][1:], moved[w1] + moved[w0][:1]
    fake_g = SimpleNamespace(diagram=g.diagram, zero_component=g.zero_component,
                             components=moved, positive_weights=g.positive_weights)
    expect(checks.check_grading(fake_g, irr) != [], "scale: root in the wrong component rejected")
    table = checks.read_table(run.DATA / "table.txt")
    counts = {key: 2 for key in table}
    expect(checks.check_scan(counts, table) == [], "scale: table scan accepted")
    counts[sorted(table)[0]] = 1
    expect(checks.check_scan(counts, table) != [], "scale: missing table entry rejected")

    sm = spin_module(4)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    R = sm.rho(v)
    expect(checks.check_rho(4, v, R, rng) == [], "scale: rho(v) accepted")
    R[0, 0] += 1e-6
    expect(checks.check_rho(4, v, R, rng) != [], "scale: perturbed rho(v) rejected")
    G, plus = sm.form_gram, sm.half_space("+").gram
    expect(checks.check_half_form(4, "+", plus) == [], "scale: m=4 S+ form accepted")
    plus = plus.copy()
    plus[0] = -plus[0]
    expect(checks.check_half_form(4, "+", plus) != [], "scale: non-symmetric form rejected")
    expect(checks.check_halves_orthogonal(4, sm.basis, G) == [], "scale: m=4 halves accepted")
    G = G.copy()
    G[sm.even_indices[0], sm.odd_indices[0]] = 1
    expect(checks.check_halves_orthogonal(4, sm.basis, G) != [],
           "scale: halves not orthogonal rejected")


def main() -> int:
    tiny_runs()
    corrupted()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
