"""Digest the output of a fixed list of CLI runs, to show that a change
leaves every report byte-identical.

    python tools/output_digests.py > digests.txt

Each run is made in-process with the package from this checkout's `src/`
and prints one line `<exit code> <sha256 of stdout and stderr> <argv>`.
Run the script in two checkouts and compare the outputs with `diff`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from parabolics import cli, walkdiag  # noqa: E402
from parabolics.rootsys import ROOT_COUNT_TYPES  # noqa: E402

VARIANTS = "1A 1B 1C 4A 4B 5A 5B 5C 6A 6B 6C 6D 6E 7A 7B 7C".split()


def deform_runs(seed: int) -> list[list[str]]:
    """`deform --json` of every variant, and of 7A at both widths, at one seed."""
    runs = [["deform", "--variant", v, "--seed", str(seed), "--json"] for v in VARIANTS]
    return runs + [["deform", "--variant", "7A", "--k", k, "--seed", str(seed), "--json"]
                   for k in ("2", "3")]


def argvs() -> list[list[str]]:
    """The runs, in order."""
    runs = [["verify-all", "--json", "--seed", str(s)] for s in range(4)]
    runs += [["verify-all", "--json", "--trials", "1000"], ["verify-case", "--all", "--json"],
             ["check-table", "--json"], ["classify", "E8", "--json"],
             ["grade", "A99/1,50"], ["grade", "A99/1,50", "--json"],
             ["grade", "D60/2,30,59", "--json"], ["grade", "E8/1,3,5", "--json"]]
    for case in walkdiag.load_cases().values():
        twisting = ";".join(",".join(map(str, t)) for t in case.twisting.values())
        runs.append(["diagram", f"{case.group}/{','.join(map(str, case.black))}",
                     "--twisting", twisting, "--json"])
    for seed in range(10):
        runs += deform_runs(seed)
    runs += [["mp-triple", "--json"], ["lemma", "--form", "sym", "--json"],
             ["lemma", "--form", "skew", "--json"],
             ["spinor", "--m", "4", "--json"], ["spinor", "--m", "6", "--json"]]
    # every colouring of E6-E8 and of the multiply laced F4, G2, B4 and C4, text and --json
    for kind, rank in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("B", 4), ("C", 4)):
        for k in range(rank):
            for black in itertools.combinations(range(1, rank + 1), k):
                colouring = f"{kind}{rank}/{','.join(map(str, black))}"
                runs += [argv for argv in (["grade", colouring], ["grade", colouring, "--json"])
                         if argv not in runs]
    for kind, rank, white in (("B", 60, (20, 40)), ("C", 40, (1, 5)), ("D", 60, (20, 40))):
        black = ",".join(str(v) for v in range(1, rank + 1) if v not in white)
        runs.append(["diagram", f"{kind}{rank}/{black}", "--twisting", "1,0;0,1", "--json"])
    for kind, rank in (*ROOT_COUNT_TYPES, ("A", 12), ("B", 12)):  # every colouring's count
        name = f"{kind}{rank}"
        runs += [argv for argv in (["classify", name], ["classify", name, "--json"])
                 if argv not in runs]
    # stacks with no generic slice: a kernel in every map, a radical in every skew image
    runs += [["lemma", "--u", "8", "--json"], ["lemma", "--u", "3", "--form", "skew", "--json"]]
    # every other accepted spinor m: odd m builds no form, 8 and 9 the largest
    runs += [["spinor", "--m", m, "--json"] for m in "1235789"]
    # the task seeds of the first five rounds perfbench `deform` times at workload seed 1
    for seed in range(100100, 100105):
        runs += deform_runs(seed)
    return runs


def digest(argv: list[str]) -> str:
    """`<exit code> <sha256> <argv>` for one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} {' '.join(argv)}"


if __name__ == "__main__":
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported {cli.__file__}, not the package under {SRC}")
    for argv in argvs():
        print(digest(argv), flush=True)
