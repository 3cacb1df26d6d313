"""Benchmark of the parabolics verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds, in whole rounds, checks every
output, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the program's public functions are wrapped
and the metrics are the per-layer ones (see tracer.py).  Times are scaled
to a reference core speed (see calib.py).  Raw per-operation times and
trace spans go to perfbench/out/.  The program is imported from src/ next
to this directory; BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import REFERENCE_S, Stopwatch  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = SRC / "parabolics" / "data"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Size:
    """Input make-up of every workload (the self-test uses a tiny one)."""

    import_probes: int = 5  # fresh interpreters timing the import, per run
    report_seeds: int = 4  # verify_all reports per round: seeds 0..n-1
    grade_types: tuple = ("A20", "B14", "C14", "D24", "F4", "G2")
    grade_colourings: int = 3  # per type and pass, all distinct
    scan_types: tuple = ("E6", "E7", "E8")
    spinor_ms: tuple = (4, 5, 6, 7, 8, 9, 10)
    spinor_vectors: int = 3  # rho(v) calls per m and pass


FULL = Size()

# criterion 10's 17 configurations: 15 variants, and 7A at k = 2 and k = 3
DEFORM_CONFIGS = [(v, None) for v in ("1A", "1B", "1C", "4A", "4B", "5A", "5B", "5C",
                                      "6A", "6B", "6C", "6D", "6E", "7B", "7C")]
DEFORM_CONFIGS += [("7A", 2), ("7A", 3)]
# Task seeds start here, clear of the acceptance seeds 0-99; each workload
# seed owns a block of this many task seeds (one per round).
DEFORM_SEED_BASE, DEFORM_SEED_BLOCK = 100, 100_000
DEFORM_ROUNDS_PER_REF = 10  # deform rounds between two reference timings


class BenchError(RuntimeError):
    pass


def run_child(job: dict, trace: bool) -> dict:
    """Run child.py in a fresh interpreter and return its envelope."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    job = dict(job, trace=trace, data_dir=str(DATA))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {job['kind']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """What one run collects.  `setup_s` and `samples_s` hold times scaled
    to reference speed; `op_s` keeps the raw time of every operation, in a
    compact array so that the deform loop's own memory stays flat."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.op_s = array("d")  # raw, NaN where the operation raised
        self.failed = 0
        self.notes: list[str] = []  # what failed, and why
        self.samples_s: list[float] = []  # what op_p50_ms is the median of
        self.setup_s: list[float] = []  # package import, one per interpreter
        self.refs: list[float] = []  # every reference-loop time
        self.peak_rss_kb: list[int] = []
        self.problems: list[str] = []
        self.exports: list[dict] = []

    def add_child(self, env: dict, what: str) -> None:
        self.setup_s.append(env["import_scaled_s"])
        self.refs += env["refs"]
        if "error" in env:
            self.op_s.append(math.nan)
            self.failed += 1
            self.notes.append(f"{what}: {env['error']}")
        elif "op_s" in env:
            self.peak_rss_kb.append(env["peak_rss_kb"])
            self.problems += [f"{what}: {p}" for p in env["problems"]]
            self.op_s.append(env["op_s"])
            self.samples_s.append(env["op_scaled_s"])
        if "trace" in env:
            for span in env["trace"]["spans"]:
                span[4] = len(self.op_s) - 1
            self.exports.append(env["trace"])

    def result(self) -> dict:
        if not self.samples_s:
            raise BenchError(f"no operation completed: {self.notes[:3]}")
        if self.trace:
            from tracer import layer_metrics

            scale = REFERENCE_S / statistics.median(self.refs)
            metrics = layer_metrics(self.exports, len(self.op_s), scale)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(self.setup_s), "unit": "s"},
                "peak_rss_mb": {"value": max(self.peak_rss_kb) / 1024, "unit": "MB"},
                "op_p50_ms": {"value": 1e3 * statistics.median(self.samples_s), "unit": "ms"},
            }
        return {"correct": not self.problems, "attempted": len(self.op_s),
                "failed": self.failed, "metrics": metrics}


# ----------------------------------------------------------------- workloads


def verify_all(seed: int, seconds: float, run: Run, size: Size) -> None:
    """Rounds of `verify-all --json` reports at seeds 0..n-1, one fresh
    interpreter each.  The inputs do not depend on the workload seed, so
    every run attempts the same reports and the seed-1 failure is the
    same share of every run.  At least two rounds, so every seed repeats."""
    from checks import check_report, file_digests

    digests = file_digests(DATA)
    first: dict[int, str] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        for s in range(size.report_seeds):
            env = run_child({"kind": "report", "seed": s}, run.trace)
            run.add_child(env, f"report seed {s}")
            if "error" in env:
                continue
            failing, problems = check_report(env["stdout"], env["rc"], digests)
            if failing or env["rc"] != 0:
                run.failed += 1
                run.notes.append(f"report seed {s}: exit {env['rc']}, failing {failing}")
            if first.setdefault(s, env["stdout"]) != env["stdout"]:
                problems.append("repeated report is not byte-identical")
            run.problems += [f"report seed {s}: {p}" for p in problems]
        rounds += 1


def deform(seed: int, seconds: float, run: Run, size: Size) -> None:
    """Round-robin seeded random_task + deform over the 17 configurations,
    in this process, one task at a time.  The timing sample is a round's
    mean task time: the configurations cost 0.2-5 ms each, and a median
    over single tasks would jump between their clusters."""
    from checks import check_deform_witness
    from child import peak_rss_kb

    sys.path.insert(0, str(SRC))
    from parabolics import ampleness

    tracer = None
    if run.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run.exports.append(tracer.export())  # its lists fill in as the run goes
    base = DEFORM_SEED_BASE + seed * DEFORM_SEED_BLOCK

    def one_round(r: int) -> float:
        """The 17 tasks of round r; returns their mean raw time."""
        round_s = 0.0
        for variant, k in DEFORM_CONFIGS:
            if tracer is not None:
                tracer.op = len(run.op_s)
            what = f"{variant} k={k} seed {base + r}"
            t0 = time.perf_counter()
            try:
                task = (ampleness.random_task_7a(k, base + r) if k
                        else ampleness.random_task(variant, base + r))
                res = ampleness.deform(task)
            except (RuntimeError, ValueError) as exc:
                res, note = None, f"{type(exc).__name__}: {exc}"
            op_s = time.perf_counter() - t0
            round_s += op_s
            run.op_s.append(op_s)
            if res is None or not res.verified:
                run.failed += 1
                run.notes.append(f"{what}: {note if res is None else 'not verified'}")
            else:
                run.problems += [f"{what}: {p}" for p in
                                 check_deform_witness(variant, task.inputs, res.witness)]
        return round_s / len(DEFORM_CONFIGS)

    # Blocks of rounds, each scaled by the reference loop timed around it.
    sw = Stopwatch()
    run.refs.append(sw.refs[0])
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        means = sw.call(lambda: [one_round(i) for i in range(r, r + DEFORM_ROUNDS_PER_REF)])
        run.samples_s += [t * REFERENCE_S * 2 / sum(sw.refs[-2:]) for t in means]
        run.refs.append(sw.refs[-1])
        r += DEFORM_ROUNDS_PER_REF
    run.peak_rss_kb.append(peak_rss_kb())


def _passes(kind: str, job):
    def workload(seed: int, seconds: float, run: Run, size: Size) -> None:
        start = time.perf_counter()
        p = 0
        while p == 0 or time.perf_counter() - start < seconds:
            env = run_child(dict(job(size), kind=kind, seed=seed, **{"pass": p}), run.trace)
            run.add_child(env, f"pass {p}")
            p += 1

    workload.__doc__ = f"Passes of the {kind} part of `scale`, one fresh interpreter each."
    return workload


WORKLOADS = {
    "verify_all": verify_all,
    "deform": deform,
    "scale_grade": _passes("grade", lambda s: {"types": s.grade_types,
                                               "colourings": s.grade_colourings}),
    "scale_scan": _passes("scan", lambda s: {"types": s.scan_types}),
    "scale_spinor": _passes("spinor", lambda s: {"ms": s.spinor_ms,
                                                 "vectors": s.spinor_vectors}),
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: Size = FULL) -> tuple[dict, Run]:
    run = Run(trace)
    for _ in range(size.import_probes):
        run.add_child(run_child({"kind": "import"}, False), "import probe")
    WORKLOADS[name](seed, seconds, run, size)
    return run.result(), run


def write_raw(name: str, seed: int, result: dict, run: Run) -> None:
    """Per-operation raw times, and the spans of a traced run."""
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(run.trace)}"
    raw = {"result": result, "problems": run.problems, "notes": run.notes,
           "op_s": [t if not math.isnan(t) else None for t in run.op_s],
           "setup_s": run.setup_s, "samples_s": run.samples_s, "refs": run.refs,
           "peak_rss_kb": run.peak_rss_kb,
           # kept for traced runs too: the difference is the tracing overhead
           "op_p50_ms": 1e3 * statistics.median(run.samples_s)}
    times = [t for t in run.op_s if not math.isnan(t)]
    if len(times) >= 1000:  # a tail only where ten operations lie beyond it
        raw["single_op_p50_ms"] = 1e3 * statistics.median(times)
        raw["single_op_p99_ms"] = 1e3 * statistics.quantiles(times, n=100)[98]
    (OUT / f"run-{stem}.json").write_text(json.dumps(raw))
    if run.trace:
        with open(OUT / f"trace-{stem}.jsonl", "w") as fh:
            for ex in run.exports:
                for span in ex["spans"]:
                    fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "parabolics" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'parabolics'}", file=sys.stderr)
        return 2
    try:
        result, run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    write_raw(args.workload, args.seed, result, run)
    for problem in run.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
