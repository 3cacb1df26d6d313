"""Where the package's import time goes, as a fresh interpreter without
bytecode pays it.

    python3 tools/import_cost.py [-n 15]

Each of N runs copies `src/parabolics` (without `__pycache__`) into a fresh
temporary directory and runs `PYTHONDONTWRITEBYTECODE=1 python -X importtime
-c "import parabolics.cli"` there, as a benchmark checkout does: the package
is compiled from source every time, numpy from its installed bytecode.  The
table gives, per module, the median over the runs of its self and its
cumulative import time in milliseconds: numpy, dataclasses and every
`parabolics.*` module, in the order their imports finish, so the last row's
cumulative time, `parabolics.cli`'s, is the whole import.  A module no run
imported reads "-".
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parabolics"
EXTERNAL = ("numpy", "dataclasses")
#: "import time:       412 |       1234 |     parabolics.rootsys"
LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| +(\S+)")


def one_run() -> dict[str, tuple[float, float]]:
    """(self ms, cumulative ms) per module of one fresh import."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(PACKAGE, Path(tmp) / "parabolics",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=tmp)
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import parabolics.cli"],
                             env=env, cwd=tmp, capture_output=True, text=True, check=True).stderr
    return {m[3]: (int(m[1]) / 1e3, int(m[2]) / 1e3) for m in map(LINE.match, err.splitlines())
            if m and (m[3] in EXTERNAL or m[3].split(".")[0] == "parabolics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("-n", type=int, default=15, help="fresh interpreters (default 15)")
    args = p.parse_args(argv)
    if args.n < 1:
        p.error("-n must be at least 1")
    runs = [one_run() for _ in range(args.n)]
    names = list(EXTERNAL) + [n for n in runs[0] if n not in EXTERNAL]
    print(f"median of {args.n} fresh imports, ms")
    print(f"{'module':<28} {'self':>8} {'cumulative':>11}")
    for name in names:
        seen = [r[name] for r in runs if name in r]
        if not seen:
            print(f"{name:<28} {'-':>8} {'-':>11}")
            continue
        own, cumulative = (statistics.median(t[i] for t in seen) for i in (0, 1))
        print(f"{name:<28} {own:8.2f} {cumulative:11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
