import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_parse_plan():
    assert bench_pairs.parse_plan("scale_grade:1-3") == ("scale_grade", [1, 2, 3])
    assert bench_pairs.parse_plan("deform:1,4-5,9001") == ("deform", [1, 4, 5, 9001])
    for bad in ("scale_grade", ":1", "deform:", "deform:3-1", "deform:1,x", "deform:-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_pairs.parse_plan(bad)


def _run(pair, side, ms, rss=40.0, failed=0):
    metrics = {"op_p50_ms": {"value": ms, "unit": "ms"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "w", "seed": pair, "pair": pair, "side": side,
            "result": {"correct": True, "attempted": 4, "failed": failed, "metrics": metrics}}


def test_summarise_counts_pairs_and_skips_incomplete_ones():
    runs = [_run(1, "parent", 10.0), _run(1, "change", 8.0),
            _run(2, "change", 9.0), _run(2, "parent", 11.0),
            _run(3, "parent", 12.0), _run(3, "change", 13.0, failed=1),
            _run(4, "parent", 10.0),
            {"workload": "w", "seed": 4, "pair": 4, "side": "change",
             "result": {"rc": 1, "stderr": "boom"}}]
    out = bench_pairs.summarise(runs, ["op_p50_ms", "peak_rss_mb"])
    ms = out["op_p50_ms"]
    assert ms["pairs"] == 3 and ms["change_lower_in_pairs"] == 2
    assert ms["parent_median"] == 11.0 and ms["change_median"] == 9.0
    assert ms["parent_q1_q3"] == [10.5, 11.5] and ms["parent_iqr"] == 1.0
    assert out["peak_rss_mb"]["change_lower_in_pairs"] == 0  # ties count for neither side
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 16, "change": 12}
    assert out["incomplete_runs"] == {"parent": 0, "change": 1}
    assert out["correct"] is False
