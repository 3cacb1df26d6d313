"""One fresh interpreter: import the package, run one job, print an envelope.

Usage (from run.py): python3 perfbench/child.py '<job as JSON>'

The last line of standard output is a JSON object with the import time and
the time of the job's program calls (each raw and scaled to reference
speed, see calib.py), the peak RSS when those calls ended, the problems the
checks found, and the spans when traced.  The checks run after the timed
calls and after the RSS reading.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

from calib import Stopwatch


def peak_rss_kb() -> int:
    """Peak RSS of this process image.  VmHWM, unlike ru_maxrss, does not
    carry over the parent's peak across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def job_report(job: dict, sw: Stopwatch) -> dict:
    """One `parabolics verify-all --json` report; checked by the parent."""
    from parabolics import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sw.call(cli.main, ["verify-all", "--json", "--seed", str(job["seed"])])
    return {"peak_rss_kb": peak_rss_kb(), "rc": rc, "stdout": buf.getvalue(), "problems": []}


def _colourings(rng, rank: int, count: int) -> list[tuple[int, ...]]:
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < min(count, 2 ** rank - 1):
        black = tuple(v for v in range(1, rank + 1) if rng.random() < 0.5)
        if len(black) < rank:
            chosen.add(black)
    return sorted(chosen)


def job_grade(job: dict, sw: Stopwatch) -> dict:
    """`grade`-style gradings with irreducibility of every positive weight."""
    import numpy as np

    import checks
    from parabolics import build_root_system, grade

    rng = np.random.default_rng([job["seed"], job["pass"]])
    plan = {name: _colourings(rng, int(name[1:]), job["colourings"]) for name in job["types"]}

    def grade_type(name):
        out = []
        for black in plan[name]:
            g = grade(name, black)
            rows = [(len(g.roots_of(w)), g.is_reduced(w), g.is_irreducible_component(w))
                    for w in g.positive_weights]
            out.append((g, [irr for _, _, irr in rows]))
        return out

    results = [r for name in job["types"] for r in sw.call(grade_type, name)]
    rss = peak_rss_kb()

    problems = []
    for name in job["types"]:
        problems += checks.check_root_system(build_root_system(name[0], int(name[1:])), rng)
    for g, irr in results:
        problems += checks.check_grading(g, irr)
    return {"peak_rss_kb": rss, "problems": problems}


def job_scan(job: dict, sw: Stopwatch) -> dict:
    """Full colouring scans of exceptional types, with irreducibility."""
    import numpy as np

    import checks
    from parabolics import build_root_system, classify, compute_grading, diagram

    def scan_type(name):
        out = []
        for rec in classify.scan_parabolics(build_root_system(name[0], int(name[1:]))):
            g = compute_grading(diagram(name, rec.black))
            out.append((rec, g, [g.is_irreducible_component(w) for w in g.positive_weights]))
        return out

    scans = {name: sw.call(scan_type, name) for name in job["types"]}
    rss = peak_rss_kb()

    rng = np.random.default_rng(job["pass"])
    problems = []
    nonreduced = {}
    for name, results in scans.items():
        rs = build_root_system(name[0], int(name[1:]))
        problems += checks.check_root_system(rs, rng)
        if len(results) != 2 ** rs.rank - 1:
            problems.append(f"{name}: scanned {len(results)} colourings, not {2 ** rs.rank - 1}")
        for rec, g, irr in results:
            nonreduced[(name, tuple(sorted(rec.black)))] = rec.nonreduced
            problems += checks.check_grading(g, irr)
    if {"E7", "E8"} <= set(job["types"]):
        table = checks.read_table(Path(job["data_dir"]) / "table.txt")
        problems += checks.check_scan(nonreduced, table)
    return {"peak_rss_kb": rss, "problems": problems}


def job_spinor(job: dict, sw: Stopwatch) -> dict:
    """Spinor identities for each m, and the forms for even m.  Below the
    largest m a pass builds the full Gram and both half-space forms; at the
    largest m, where one build takes over a second, it builds one of the
    three, in turn with the pass number."""
    import numpy as np

    import checks
    from parabolics.spinor import spin_module

    rng = np.random.default_rng([job["seed"], job["pass"]])
    vectors = {m: [rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
                   for _ in range(job["vectors"])] for m in job["ms"]}
    forms = {"full": lambda sm: sm.form_gram,
             "+": lambda sm: sm.half_space("+").gram,
             "-": lambda sm: sm.half_space("-").gram}

    def one_m(m):
        sm = spin_module(m)
        kinds = [] if m % 2 else list(forms)
        if kinds and m == max(job["ms"]):
            kinds = [kinds[job["pass"] % 3]]
        return m, sm.basis, [sm.rho(v) for v in vectors[m]], {k: forms[k](sm) for k in kinds}

    results = [sw.call(one_m, m) for m in job["ms"]]
    rss = peak_rss_kb()

    problems = []
    for m, basis, rhos, built in results:
        for v, R in zip(vectors[m], rhos):
            problems += checks.check_rho(m, v, R, rng)
        for kind, G in built.items():
            problems += (checks.check_halves_orthogonal(m, basis, G) if kind == "full"
                         else checks.check_half_form(m, kind, G))
    return {"peak_rss_kb": rss, "problems": problems}


JOBS = {"report": job_report, "grade": job_grade, "scan": job_scan, "spinor": job_spinor}


def main() -> int:
    job = json.loads(sys.argv[1])
    sw = Stopwatch()
    sw.call(importlib.import_module, "parabolics.cli")  # the whole package
    out: dict = {"import_s": sw.raw_s, "import_scaled_s": sw.raw_s * sw.scale(),
                 "refs": sw.refs}
    if job["kind"] != "import":
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.op = 0
        sw = Stopwatch(first_ref=sw.refs[-1])
        try:
            out.update(JOBS[job["kind"]](job, sw))
            out.update(op_s=sw.raw_s, op_scaled_s=sw.raw_s * sw.scale())
        except (RuntimeError, ValueError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            out["trace"] = tracer.export()
        out["refs"] += sw.refs[1:]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
