import argparse
import importlib.util
import json
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


def _stub_checkouts(monkeypatch, runs_seen):
    """Replace git and the runs: no checkout is made and no benchmark runs.
    A stub run's op_p50_ms is one lower on the change side."""
    def fake_run(checkout, command, workload, seed, seconds):
        runs_seen.append((workload, seed, checkout.name))
        ms = 10.0 + seed % 7 - (checkout.name == "change")
        metrics = {m: {"value": ms, "unit": "x"} for m in ("setup_s", "peak_rss_mb", "op_p50_ms")}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "f" * 40 + "\n")
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "machine", lambda: {})


def test_held_out_pairs_go_into_their_own_section(monkeypatch, tmp_path):
    seen = []
    _stub_checkouts(monkeypatch, seen)
    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main(["--parent", "HEAD", "--plan", "scale_grade:1-2", "--plan", "deform:3",
                             "--held-out", "scale_grade:9001-9002", "--out", str(out)]) == 0
    assert seen == [("scale_grade", 1, "parent"), ("scale_grade", 1, "change"),
                    ("scale_grade", 2, "change"), ("scale_grade", 2, "parent"),
                    ("deform", 3, "parent"), ("deform", 3, "change"),
                    ("scale_grade", 9001, "parent"), ("scale_grade", 9001, "change"),
                    ("scale_grade", 9002, "change"), ("scale_grade", 9002, "parent")]
    report = json.loads(out.read_text())
    assert list(report["summary"]) == ["scale_grade", "deform"]
    assert [r["seed"] for r in report["runs"]] == [1, 1, 2, 2, 3, 3]
    held = report["held_out"]
    assert list(held) == ["what", "summary", "runs"]
    assert held["what"].endswith("scale_grade seeds 9001,9002")
    assert [(r["seed"], r["pair"], r["side"]) for r in held["runs"]] == [
        (9001, 1, "parent"), (9001, 1, "change"), (9002, 2, "change"), (9002, 2, "parent")]
    ms = held["summary"]["scale_grade"]["op_p50_ms"]
    assert (ms["pairs"], ms["change_lower_in_pairs"]) == (2, 2)
    assert ms["parent_median"] == 10.0 + (9001 % 7 + 9002 % 7) / 2


def test_no_held_out_section_without_the_option(monkeypatch, tmp_path):
    _stub_checkouts(monkeypatch, [])
    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main(["--parent", "HEAD", "--plan", "deform:1", "--out", str(out)]) == 0
    assert "held_out" not in json.loads(out.read_text())


@pytest.mark.parametrize("argv,message", [
    (["--held-out", "scale_grade:1", "--held-out", "scale_grade:2"],
     "--held-out: give each workload once"),
    (["--held-out", "nope:1"], "--held-out: unknown workload 'nope'"),
    (["--held-out", "scale_grade"], "argument --held-out: 'scale_grade': expected WORKLOAD:SEEDS"),
])
def test_bad_held_out_plans_are_rejected(monkeypatch, tmp_path, capsys, argv, message):
    seen = []
    _stub_checkouts(monkeypatch, seen)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", "HEAD", "--plan", "deform:1", *argv,
                          "--out", str(tmp_path / "BENCH_9.json")])
    assert message in capsys.readouterr().err and seen == []
