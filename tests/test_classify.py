from pathlib import Path

import pytest

from parabolics.classify import (
    check_table,
    load_table,
    match_table_entry,
    scan_parabolics,
)
from parabolics.grading import grade
from parabolics.rootsys import build_root_system
from parabolics.walkdiag import load_cases


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


def test_bundled_table_is_read_once(monkeypatch):
    from parabolics import classify

    reads = []
    real_read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        if self.name == "table.txt":
            reads.append(self)
        return real_read_text(self, *args, **kwargs)

    classify._parse_default_table.cache_clear()
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    for _ in range(15):
        assert match_table_entry("E7", [1]) is None
    assert len(reads) == 1
    assert isinstance(load_table(), tuple)
    # an explicit path is parsed every time
    load_table(reads[0])
    assert len(reads) == 2


def test_check_table_of_no_entries_checks_nothing():
    report = check_table([])
    assert report.lines == [] and report.passed
    assert check_table(()).lines == []
    # one explicit entry is checked alone
    [line] = check_table(load_table()[:1]).lines
    assert line["anchor"] == f"table entry {load_table()[0].index}"


def test_match_table_entry_in_no_entries_finds_nothing():
    first = load_table()[0]
    assert match_table_entry(first.group, first.black) == first.index
    assert match_table_entry(first.group, first.black, []) is None
    assert match_table_entry(first.group, first.black, ()) is None
