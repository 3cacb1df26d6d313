"""Benchmark a change against its parent revision in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --plan scale_grade:1-10 \\
        --plan deform:1-5 --plan verify_all:1,2 \\
        [--control deform] [--held-out scale_grade:9001-9002] [--note TEXT] \\
        [--out BENCH_5.json]

The parent revision is unpacked with `git archive` into a temporary
directory, and the change, the working tree (every file git tracks or does
not ignore), is copied into a second one, so both sides run from fresh
directories of the same shape.  Unlike a `git worktree`, an archive leaves
nothing registered in the repository if the run is interrupted.  Each
`--plan WORKLOAD:SEEDS` adds one pair per seed; pair k runs the parent
first when k is odd and the change first when k is even, one run at a time.
`--held-out WORKLOAD:SEEDS` adds pairs the same way, after the plan, for
seeds that were not used while the change was written; they are reported
apart, in the file's `held_out` section.  `--control WORKLOAD` names a
planned workload whose code the change does not touch: pairs drift with the
code untouched, and a claimed change is read against that workload's drift,
which the file's `control` section repeats.
A run is the benchmark command of `BENCHMARK.json` (`perfbench/run.py
--workload W --seed N --seconds S --trace 0`, S being its `run_seconds`) in
that side's copy, and its last stdout line is its JSON result.

The output file (default: the next free `BENCH_<n>.json` at the repository
root) holds every run and, per workload and end-to-end metric, both sides'
medians and quartiles, the relative change of the medians in percent
(`change_pct`), the parent's interquartile distance and the number of pairs
in which the change is lower; the held-out pairs have their own
`what`, `summary` and `runs`.  The temporary directories, and the
raw `perfbench/out/` files written in them, are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def unpack(rev: str, dest: Path) -> None:
    """The tree of rev, as `git archive` writes it, into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    """Every file of the working tree that git tracks or does not ignore."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_plan(text: str) -> tuple[str, list[int]]:
    """'scale_grade:1-10' or 'deform:1,2,9001' -> (workload, seeds)."""
    workload, sep, spec = text.partition(":")
    seeds: list[int] = []
    for part in spec.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?", part)
        if not sep or not workload or m is None:
            raise argparse.ArgumentTypeError(f"{text!r}: expected WORKLOAD:SEEDS, "
                                             "seeds like 1-10 or 1,2,9001")
        first, last = int(m[1]), int(m[2] or m[1])
        if last < first:
            raise argparse.ArgumentTypeError(f"{text!r}: empty seed range {part.strip()}")
        seeds += range(first, last + 1)
    return workload, seeds


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    argv = [sys.executable if command[0].startswith("python") else command[0], *command[1:],
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(runs: list[dict], metrics: list[str]) -> dict:
    """Per metric (each lower-is-better): medians, quartiles and pairwise
    wins over the pairs in which both sides returned a result."""
    pairs: dict[int, dict[str, dict]] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    done = [p for p in pairs.values()
            if all("metrics" in p.get(side, {}) for side in ("parent", "change"))]
    out: dict = {}
    for name in (metrics if done else []):
        parent = [p["parent"]["metrics"][name]["value"] for p in done]
        change = [p["change"]["metrics"][name]["value"] for p in done]
        pq, cq = quartiles(parent), quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_pct": 100 * (c_med / p_med - 1) if p_med else None,
            "parent_iqr": pq[1] - pq[0],
            "change_q1_q3": cq,
            "parent_q1_q3": pq,
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(done),
        }
    results = {side: [r["result"] for r in runs if r["side"] == side] for side in ("parent", "change")}
    out["failed"] = {s: sum(r.get("failed", 0) for r in rs) for s, rs in results.items()}
    out["attempted"] = {s: sum(r.get("attempted", 0) for r in rs) for s, rs in results.items()}
    out["incomplete_runs"] = {s: sum("metrics" not in r for r in rs) for s, rs in results.items()}
    out["correct"] = all(r.get("correct") is True for rs in results.values() for r in rs)
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "blas_threads": 1}


def next_bench_path() -> Path:
    taken = [int(m[1]) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def run_pairs(sides: dict[str, Path], command: list[str], plan: list[tuple[str, list[int]]],
              seconds: float) -> list[dict]:
    """One pair of runs per seed of each workload, alternating which side goes first."""
    runs: list[dict] = []
    for workload, seeds in plan:
        for pair, seed in enumerate(seeds, start=1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], command, workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair,
                             "side": side, "result": result})
                value = result.get("metrics", {}).get("op_p50_ms", {}).get("value")
                print(f"{workload} seed {seed} pair {pair} {side}: "
                      f"op_p50_ms {value if value is None else round(value, 3)}",
                      file=sys.stderr, flush=True)
    return runs


def section(plan: list[tuple[str, list[int]]], runs: list[dict], metrics: list[str]) -> dict:
    """What one set of pairs ran, its summary per workload, and its runs."""
    plan_text = ", ".join(f"{w} seeds {','.join(map(str, s))}" for w, s in plan)
    return {
        "what": "perfbench end-to-end runs, parent and change in alternating pairs "
                f"(odd pairs run the parent first): {plan_text}",
        "summary": {w: summarise([r for r in runs if r["workload"] == w], metrics)
                    for w, _ in plan},
        "runs": runs,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="the revision to compare against")
    p.add_argument("--plan", type=parse_plan, action="append", required=True,
                   metavar="WORKLOAD:SEEDS", help="e.g. scale_grade:1-10; repeatable")
    p.add_argument("--held-out", type=parse_plan, action="append", default=[],
                   metavar="WORKLOAD:SEEDS",
                   help="e.g. scale_grade:9001-9002, reported under held_out; repeatable")
    p.add_argument("--control", metavar="WORKLOAD",
                   help="a planned workload whose code the change does not touch")
    p.add_argument("--note", default="", help="what the change is, for the output file")
    p.add_argument("--out", type=Path, help="output file; the next free BENCH_<n>.json by default")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for option, plan in (("--plan", args.plan), ("--held-out", args.held_out)):
        names = [workload for workload, _ in plan]
        if len(set(names)) < len(names):
            p.error(f"{option}: give each workload once, with all of its seeds")
        for workload in names:
            if workload not in known:
                p.error(f"{option}: unknown workload {workload!r}; BENCHMARK.json has {sorted(known)}")
    planned = [workload for workload, _ in args.plan]
    if args.control is not None and args.control not in planned:
        p.error(f"--control: {args.control!r} is not a planned workload; --plan has {planned}")
    metrics = [m["name"] for m in bench["end_to_end"]]
    if any(m["better"] != "lower" for m in bench["end_to_end"]):
        p.error("BENCHMARK.json: every end-to-end metric must be lower-is-better")
    seconds = bench["run_seconds"]
    try:
        parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    except subprocess.CalledProcessError as exc:
        p.error(f"unknown revision: {exc.stderr.strip()}")
    out_path = args.out or next_bench_path()

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for path in sides.values():
            path.mkdir()
        unpack(parent_sha, sides["parent"])
        copy_working_tree(sides["change"])
        runs = run_pairs(sides, bench["command"], args.plan, seconds)
        held_runs = run_pairs(sides, bench["command"], args.held_out, seconds)

    main_section = section(args.plan, runs, metrics)
    control = None
    if args.control is not None:
        drift = main_section["summary"][args.control]
        control = {"workload": args.control,
                   "change_pct": {m: drift[m]["change_pct"] for m in metrics if m in drift}}
    report = {
        "what": main_section["what"],
        "command": " ".join(bench["command"] + ["--workload", "W", "--seed", "N",
                                                "--seconds", f"{seconds:g}", "--trace", "0"]),
        "parent": parent_sha,
        "change": f"working tree on {git('rev-parse', 'HEAD').strip()}",
        "note": args.note,
        "machine": machine(),
        "control": control,
        "summary": main_section["summary"],
        "runs": runs,
    }
    if args.held_out:
        report["held_out"] = section(args.held_out, held_runs, metrics)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
