import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import parabolics
from parabolics import classify
from parabolics.classify import (
    check_table,
    load_table,
    match_table_entry,
    nonreduced_counts,
    scan_parabolics,
)
from parabolics.grading import ColouredDiagram, compute_grading, grade
from parabolics.rootsys import ROOT_COUNT_TYPES, build_root_system
from parabolics.walkdiag import (DATA_DIR_ENV, CaseDataError, data_path, load_cases,
                                 verify_all_cases)


def _scan_record(name: str, black: tuple[int, ...]):
    [rec] = [r for r in scan_parabolics(build_root_system(name[0], int(name[1:])))
             if r.black == black]
    return rec


def test_two_step_maximal_parabolic_is_weakly_ample():
    # one white vertex whose coefficient in the highest root is 1
    assert grade("A4", [1, 2, 4]).positive_weights == ((1,),)
    assert _scan_record("A4", (1, 2, 4)).basic_lemma_weakly_ample


def test_case_2a_colouring_not_settled_by_count():
    assert not _scan_record("E7", (1, 3, 4, 6, 7)).basic_lemma_weakly_ample


def test_scan_counts():
    assert len(scan_parabolics(build_root_system("G", 2))) == 3
    assert len(scan_parabolics(build_root_system("E", 7))) == 127


def test_scan_deterministic_order():
    a = scan_parabolics(build_root_system("A", 3))
    b = scan_parabolics(build_root_system("A", 3))
    assert [r.black for r in a] == [r.black for r in b]


def test_table_loads_59_entries():
    entries = load_table()
    assert len(entries) == 59
    assert sum(1 for e in entries if e.group == "E7") == 8
    assert sum(1 for e in entries if e.group == "E8") == 51


def test_check_table_counts():
    report = check_table()
    assert report.passed and not report.failures()
    details = {l["anchor"]: l["detail"] for l in report.lines}
    assert list(details) == [f"table entry {i}" for i in range(1, 60)]
    assert set(details.values()) == {f"nonreduced count {c}" for c in (2, 3, 4)}
    # entries matching the bundled case colourings carry the printed counts
    cases = load_cases()
    for cid, want in [("2A", 2), ("2B", 2), ("5B", 4), ("5C", 4), ("4A", 2)]:
        spec = cases[cid]
        entry = match_table_entry(spec.group, spec.black)
        assert details[f"table entry {entry}"] == f"nonreduced count {want}"
        assert want == len(spec.nonreduced)


def test_table_is_exactly_the_multi_nonreduced_colourings():
    # completeness: the 59 entries are precisely the proper colourings of
    # E7/E8 whose gradings carry two or more non-reduced positive weights
    entries = load_table()
    for name in ("E7", "E8"):
        rs = build_root_system(name[0], int(name[1]))
        found = {r.black for r in scan_parabolics(rs) if r.nonreduced >= 2}
        listed = {tuple(sorted(e.black)) for e in entries if e.group == name}
        assert found == listed


def test_basic_lemma_set_disjoint_from_table():
    listed = {(e.group, tuple(sorted(e.black))) for e in load_table()}
    seen = 0
    for name in ("E7", "E8"):
        for r in scan_parabolics(build_root_system(name[0], int(name[1]))):
            if (name, r.black) in listed:
                assert not r.basic_lemma_weakly_ample
                seen += 1
    assert seen == 59


def test_every_case_colouring_is_a_table_entry():
    for spec in load_cases().values():
        assert match_table_entry(spec.group, spec.black) is not None
    assert match_table_entry("E7", [1]) is None
    entries = load_table()
    assert [match_table_entry(e.group, e.black[::-1]) for e in entries] == [e.index for e in entries]


def test_bundled_table_is_read_once(monkeypatch):
    from parabolics import classify

    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        if self.name == "table.txt":
            reads.append(self)
        return real_read_text(self, *args, **kwargs)

    classify._parse_table.cache_clear()
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    for _ in range(15):
        assert match_table_entry("E7", [1]) is None
    assert len(reads) == 1
    assert isinstance(load_table(), tuple)
    assert len(reads) == 1


@pytest.mark.parametrize("old, new, message", [
    ("entry 2 E7 black 1,3,6,7\n", "entry 1 E7 black 1,3,5,7\n", ":6: entry 1 is defined twice"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E7 black 7,5,3,1\n",
     ":6: entry 2 repeats the colouring of entry 1"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E7 1,3,6,7\n",
     ":6: expected 'entry N GROUP black VERTICES', got 'entry 2 E7 1,3,6,7'"),
    ("entry 2 E7 black 1,3,6,7\n", "case 2 E7 white 1,3,6,7\n",
     ":6: expected 'entry N GROUP black VERTICES', got 'case 2 E7 white 1,3,6,7'"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E7 black 1,x\n", ":6: invalid literal for int()"),
    ("entry 2 E7 black 1,3,6,7\n", "", "expected 59 entries, found 58"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E7 black 1,3,6,9\n",
     ":6: entry 2: black vertices [9] out of range 1..7 for E7"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 X7 black 1,3,6,7\n",
     ":6: entry 2: cannot parse type string 'X7'"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E9 black 1,3,6,7\n",
     ":6: entry 2: invalid simple type E9"),
    ("entry 2 E7 black 1,3,6,7\n", "entry 2 E7 black 1,2,3,4,5,6,7\n",
     ":6: entry 2: no white vertex"),
], ids=["index-twice", "colouring-twice", "no-black", "wrong-keyword", "bad-int", "58-entries",
        "vertex-out-of-range", "unknown-type", "invalid-group", "all-black"])
def test_load_table_errors_name_the_fault(tmp_path, monkeypatch, old, new, message):
    text = data_path("table.txt").read_text()
    assert old in text
    (tmp_path / "table.txt").write_text(text.replace(old, new, 1))
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    with pytest.raises(CaseDataError, match=re.escape(message)):
        load_table()
    with pytest.raises(CaseDataError, match=re.escape(message)):
        check_table()


# ------------------------------------------- the counting kernel: oracles


def _nonreduced_oracle(rs, black):
    """The count as the scan made it before the kernel: a full grading per
    colouring, whose positive weight is non-reduced when its double is a
    weight of the components."""
    g = compute_grading(ColouredDiagram(rs, frozenset(black)))
    return sum(tuple(2 * c for c in w) in g.components for w in g.positive_weights)


@pytest.mark.parametrize("kind, rank", ROOT_COUNT_TYPES,
                         ids=[f"{k}{r}" for k, r in ROOT_COUNT_TYPES])
def test_scan_equals_grading_oracle_every_colouring(kind, rank):
    rs = build_root_system(kind, rank)
    records = scan_parabolics(rs)
    assert len(records) == 2 ** rank - 1
    assert [r.nonreduced for r in records] == [_nonreduced_oracle(rs, r.black) for r in records]
    assert all(type(r.nonreduced) is int for r in records)


@pytest.mark.parametrize("name", ["E8", "D6", "C5", "G2", "A1"])
def test_scan_in_blocks_of_one_colouring(name, monkeypatch):
    rs = build_root_system(name[0], int(name[1:]))
    default = scan_parabolics(rs)
    monkeypatch.setattr(classify, "_SCAN_BLOCK", 1)
    assert scan_parabolics(rs) == default


@pytest.mark.parametrize("name, blacks", [
    # up to 99 white vertices, whose mixed-radix keys (radix 3 in A99, 5 past
    # vertex 1 in B40) would have passed 2^62
    ("A99", [tuple(range(1, 80)), (), (50,), tuple(range(1, 100, 2)), tuple(range(1, 61)),
             tuple(range(1, 63))]),
    # white tails carry non-reduced weights (e_i and e_i + e_j, i < j)
    ("B40", [tuple(range(1, 36)), tuple(range(1, 14)), tuple(range(1, 10)), (), (3, 39),
             tuple(range(1, 20))]),
], ids=["A99", "B40"])
def test_many_white_vertices_equal_the_grading_oracle(name, blacks):
    rs = build_root_system(name[0], int(name[1:]))
    counts = nonreduced_counts(rs, blacks)
    assert counts.tolist() == [_nonreduced_oracle(rs, b) for b in blacks]
    assert any(counts) or name == "A99"  # type A has no non-reduced weight


def test_block_of_more_than_256_colourings():
    # B7's 127 colourings three times: one block of 334, whose index needs
    # both key bytes, and one of 47
    rs = build_root_system("B", 7)
    blacks = [r.black for r in scan_parabolics(rs)] * 3
    assert classify._SCAN_BLOCK // len(rs.positive_array) == 334
    want = [_nonreduced_oracle(rs, b) for b in blacks[:127]] * 3
    assert nonreduced_counts(rs, blacks).tolist() == want
    assert len(set(want)) > 1


def test_nonreduced_counts_of_named_colourings():
    rs = build_root_system("E", 7)
    assert nonreduced_counts(rs, []).tolist() == []
    assert nonreduced_counts(rs, [(1, 3, 4, 6, 7), [1, 2, 3, 4, 5, 6]]).tolist() == [2, 1]
    for bad in ([(0,)], [(1, 8)], [tuple(range(1, 8))]):
        with pytest.raises(ValueError):
            nonreduced_counts(rs, bad)


@pytest.mark.parametrize("bad", [True, 1.5, "1", 1 + 0j, np.bool_(True), np.float64(1.5)])
def test_nonreduced_counts_refuse_a_vertex_that_is_not_an_integer(bad):
    # np.fromiter would truncate 1.5 to vertex 1 and read True as 1.
    rs = build_root_system("E", 7)
    with pytest.raises(ValueError, match=re.escape(f"black vertex {bad!r} is not an integer")):
        nonreduced_counts(rs, [(1, 3, 4, 6, 7), (bad, 3, 4, 6, 7)])
    same = nonreduced_counts(rs, [(1.0, 3, 4, 6, 7), (np.int64(1), 3)])
    assert same.tolist() == nonreduced_counts(rs, [(1, 3, 4, 6, 7), (1, 3)]).tolist()


def test_scan_builds_no_root_tuples(monkeypatch):
    from parabolics.grading import Grading

    def refuse(g):
        raise AssertionError(f"root tuples of {g.diagram} built")

    monkeypatch.setattr(Grading, "components", property(refuse))
    monkeypatch.setattr(Grading, "zero_component", property(refuse))
    scan = scan_parabolics(build_root_system("E", 8))
    assert len(scan) == 255
    assert check_table().passed
    assert all(r.passed for r in verify_all_cases().values())
    for black in ([1, 3], [2, 4, 5, 7], []):
        g = grade("E8", black)
        weights = g.positive_weights
        reduced = [g.is_reduced(w) for w in weights]
        assert reduced == [not g.is_positive_weight(tuple(2 * c for c in w)) for w in weights]
        assert g.positive_nonreduced_weights() == tuple(
            w for w, r in zip(weights, reduced) if not r)
        assert all(g.is_irreducible_component(w) for w in weights)
        assert all(len(g.highest_root_of(w)) == 1 for w in weights)
    for lazy in ("components", "zero_component"):
        with pytest.raises(AssertionError, match="root tuples"):
            getattr(g, lazy)


# Peak RSS growth of `classify A14` over the bare import when the scan built
# a grading per colouring (Python 3.11, numpy 2.4, 2-core Xeon).
PARENT_CLASSIFY_A14_MB = 11.1


def test_classify_a14_peak_rss_is_bounded():
    # The blocked kernel keeps `classify A14` (16,383 colourings) within
    # 5 MB of the per-colouring scan's growth, in a fresh interpreter.
    script = (
        "import contextlib, io\n"
        "from parabolics import cli\n"
        "def hwm():\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith('VmHWM:'):\n"
        "            return int(line.split()[1]) / 1024\n"
        "base = hwm()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', 'A14']) == 0\n"
        "print(hwm() - base)\n"
    )
    src = str(Path(parabolics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert float(out) <= PARENT_CLASSIFY_A14_MB + 5
