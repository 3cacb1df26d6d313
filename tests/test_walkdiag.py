import re

import numpy as np
import pytest

from linalg_helpers import sum_table_reads
from parabolics.cli import main
from parabolics.grading import Grading, compute_grading, diagram, grade
from parabolics.rootsys import RootSystem
from parabolics.walkdiag import (
    DATA_DIR_ENV,
    CaseDataError,
    build_weight_diagram,
    data_checksum,
    data_path,
    load_cases,
    rubbish_weights,
    verify_all_cases,
    verify_case,
)

CASE_IDS = ["1A", "2A", "2B", "2C", "2D", "2E", "3", "4A", "4B", "4C",
            "5A", "5B", "5C", "5D", "5E"]


@pytest.fixture(scope="module")
def cases():
    return load_cases()


def test_all_cases_present(cases):
    assert sorted(cases) == sorted(CASE_IDS)


def test_case_shapes(cases):
    c = cases["2A"]
    assert c.group == "E7" and c.parabolic == 19
    assert c.black == (1, 3, 4, 6, 7)
    assert c.nonreduced == {"A": (0, 1), "B": (1, 1)}
    assert c.twisting == {"1": (1, 0)}
    assert c.rubbish == {"a": (2, 1)}
    assert set(c.arrows) == {("A", "1", "B"), ("B", "1", "a")}
    big = cases["5B"]
    assert len(big.nonreduced) == 4 and len(big.twisting) == 17
    assert len(big.rubbish) == 15 and len(big.arrows) == 104
    assert "skipped" in cases["5C"].note and len(cases["5C"].twisting) == 19


@pytest.mark.parametrize("cid", CASE_IDS)
def test_verify_case_passes(cases, cid):
    report = verify_case(cases[cid])
    assert report.passed, [l for l in report.lines if not l["ok"]]


def test_verify_all_cases():
    reports = verify_all_cases()
    assert len(reports) == 15 and all(r.passed for r in reports.values())


def test_corrupted_arrow_fails_with_offending_triple(cases):
    spec = cases["2A"]
    bad = spec._replace(arrows=(("A", "1", "B"), ("A", "1", "a")))
    report = verify_case(bad)
    assert not report.passed
    [failure] = [l for l in report.lines if not l["ok"]]
    assert failure["anchor"] == "arrow set matches" and report.failures() == [failure["anchor"]]
    assert "('A', '1', 'a')" in failure["detail"] and "('B', '1', 'a')" in failure["detail"]


def test_corrupted_weight_fails(cases):
    spec = cases["2B"]
    bad = spec._replace(rubbish={"z": (9, 9)})
    report = verify_case(bad)
    assert not report.passed
    # without its rubbish weight, 2A's arrow B -1-> a lands off the named vertices
    report = verify_case(cases["2A"]._replace(rubbish={}))
    assert report.failures() == ["rubbish weights match", "arrow heads all land on vertices",
                                 "arrow set matches"]
    details = {l["anchor"]: l["detail"] for l in report.lines}
    assert details["arrow heads all land on vertices"] == "B-1->(2, 1)"


# ------------------------------------------------------------ primitives


def test_rubbish_examples(cases):
    g = compute_grading(diagram("E7", cases["2A"].black))
    assert rubbish_weights(g, [(1, 0)]) == {(2, 1)}
    assert rubbish_weights(g, []) == set()
    g2b = compute_grading(diagram("E7", cases["2B"].black))
    assert rubbish_weights(g2b, list(cases["2B"].twisting.values())) == set()
    with pytest.raises(ValueError):
        rubbish_weights(g, [(9, 9)])


def _rubbish_bfs(g, twisting):
    """Reference: a breadth-first closure, one vector at a time, inside the
    coordinate box of the positive weights."""
    box = tuple(map(max, zip(*g.positive_weights)))
    seen = set(g.positive_nonreduced_weights()) if twisting else set()
    frontier = list(seen)
    while frontier:
        new = []
        for v in frontier:
            for t in twisting:
                u = tuple(a + b for a, b in zip(v, t))
                if u not in seen and all(x <= m for x, m in zip(u, box)):
                    seen.add(u)
                    new.append(u)
        frontier = new
    return {u for u in seen if g.is_positive_weight(u) and g.is_reduced(u)}


def test_rubbish_closure_equals_the_breadth_first_oracle(cases):
    rng = np.random.default_rng(23)
    gradings = [(compute_grading(diagram(c.group, c.black)), list(c.twisting.values()))
                for c in cases.values()]
    gradings += [(g, None) for g in _seeded_gradings()]
    gradings += [(grade(name, black), None) for name, black in
                 (("E8", [1]), ("E7", [2, 5]), ("B12", [1]), ("C8", [2, 6]), ("F4", [4]))]
    sets = nonempty = 0
    for g, printed in gradings:
        weights = g.positive_weights
        draws = [printed] if printed else []
        draws += [[weights[i] for i in rng.choice(len(weights), size=k, replace=False)]
                  for k in rng.integers(0, min(8, len(weights)) + 1, size=12)]
        for twisting in draws + [list(weights)]:
            want = _rubbish_bfs(g, twisting)
            assert rubbish_weights(g, twisting) == want, (g.diagram, twisting)
            sets, nonempty = sets + 1, nonempty + bool(want)
    assert sets > 500 and nonempty > 100


def test_rubbish_closure_on_a_long_box():
    # B40/1: the one non-reduced weight is (1, ..., 1) in a box up to (2, ..., 2)
    g = grade("B40", [1])
    ones, unit = (1,) * 39, (1,) + (0,) * 38
    assert g.positive_nonreduced_weights() == (ones,)
    for twisting in ([ones], [unit], [ones, unit]):
        assert rubbish_weights(g, twisting) == _rubbish_bfs(g, twisting)
    assert rubbish_weights(g, [ones]) == {(2,) * 39}
    # B50/1,3,...,49: 25 nested non-reduced weights, which differ on every
    # white vertex although only the last one moves under (0, ..., 0, 1)
    g = grade("B50", range(1, 50, 2))
    assert len(g.positive_nonreduced_weights()) == 25
    for twisting in ([(0,) * 24 + (1,)], [(1,) * 25]):
        assert rubbish_weights(g, twisting) == _rubbish_bfs(g, twisting)


def test_arrow_head_examples(cases):
    g = compute_grading(diagram("E7", cases["2A"].black))
    wd = build_weight_diagram(g, [(1, 0)])
    assert wd.arrows == (((0, 1), (1, 0), (1, 1)), ((1, 1), (1, 0), (2, 1)))
    top = max(g.positive_weights, key=sum)
    assert top not in g.bracket_reach(top)
    with pytest.raises(ValueError):
        g.bracket_reach((9, 9))
    with pytest.raises(ValueError):
        build_weight_diagram(g, [(9, 9)])


def test_arrow_head_rejects_negative_weights():
    # (0, -1) is a weight of this grading, but not a positive one
    g = compute_grading(diagram("E7", (1, 3, 4, 6, 7)))
    assert g.is_positive_weight((0, 1)) and not g.is_positive_weight((0, -1))
    with pytest.raises(ValueError, match="not a positive weight"):
        build_weight_diagram(g, [(1, 1), (0, -1)])
    with pytest.raises(ValueError, match="not a positive weight"):
        g.bracket_reach((0, -1))


def test_build_weight_diagram_matches_case_2a(cases):
    spec = cases["2A"]
    g = compute_grading(diagram("E7", spec.black))
    wd = build_weight_diagram(g, list(spec.twisting.values()))
    assert set(wd.nonreduced) == set(spec.nonreduced.values())
    assert set(wd.rubbish) == set(spec.rubbish.values())
    assert set(wd.nonreduced) | set(wd.rubbish) == {(0, 1), (1, 1), (2, 1)}
    assert set(wd.arrows) == {((0, 1), (1, 0), (1, 1)), ((1, 1), (1, 0), (2, 1))}


def test_arrow_heads_always_vertices(cases):
    # closure property: any positive-weight head of a vertex is again a vertex
    for cid in CASE_IDS:
        spec = cases[cid]
        g = compute_grading(diagram(spec.group, spec.black))
        wd = build_weight_diagram(g, list(spec.twisting.values()))
        vertices = set(wd.nonreduced) | set(wd.rubbish)
        for (_, _, head) in wd.arrows:
            assert head in vertices


def test_arrow_label_addition(cases):
    for cid in CASE_IDS:
        spec = cases[cid]
        g = compute_grading(diagram(spec.group, spec.black))
        wd = build_weight_diagram(g, list(spec.twisting.values()))
        for tail, mu, head in wd.arrows:
            assert tuple(a + b for a, b in zip(tail, mu)) == head


def test_bracket_image_covers_head_component(cases):
    # when the bracket is nonzero every head root is a tail + twisting sum
    for cid in CASE_IDS:
        spec = cases[cid]
        g = compute_grading(diagram(spec.group, spec.black))
        named = spec.all_named()
        for tail_name, mu_name, head_name in spec.arrows:
            tail = set(g.roots_of(named[tail_name]))
            mu = set(g.roots_of(named[mu_name]))
            head = set(g.roots_of(named[head_name]))
            sums = {tuple(a + b for a, b in zip(x, y)) for x in tail for y in mu}
            assert head <= sums, (cid, tail_name, mu_name, head_name)


def test_data_checksum_stable():
    assert data_checksum("cases.txt") == data_checksum("cases.txt")
    assert len(data_checksum("table.txt")) == 64


def test_data_dir_override_and_corrupt_file(tmp_path, monkeypatch):
    monkeypatch.setenv("PARABOLICS_DATA_DIR", str(tmp_path))
    with pytest.raises(CaseDataError):
        data_path("cases.txt")
    (tmp_path / "cases.txt").write_text("case X\n  bogus line\nend\n")
    with pytest.raises(CaseDataError):
        load_cases()


@pytest.mark.parametrize("text, message", [
    ("case X\n  parabolic 1\n  covers 1\n  black 1\nend\n", ":5: case X has no 'group' line"),
    ("case X\n  group E7\n  parabolic 1\n  covers 1\nend\n", ":5: case X has no 'black' line"),
    ("  group E7\ncase X\nend\n", ":1: 'group' line before any 'case' line"),
    ("end\n", ":1: 'end' line before any 'case' line"),
    ("case X\n  twisting 1 = 1,0\nend\n", ":2: twisting 1 needs one '; labels' part"),
    ("case X\n  rubbish a = 1 ; labels 1 ; 2\nend\n", ":2: rubbish a needs one '; labels' part"),
    ("case X\n  parabolic one\nend\n", ":2: invalid literal for int()"),
    ("case X\n  bogus line\nend\n", ":2: unrecognised line: '  bogus line'"),
    ("case X\n  group E7\n", "unterminated case stanza X"),
    ("# comments only\n", "no case stanzas found"),
    ("case X\n  group E7\n  parabolic 1\n  covers 1\n  black 1\nend\ncase X\nend\n",
     ":7: case X is defined twice"),
    ("case X\n  twisting 1 = 1,0 ; labels 1\n  twisting 1 = 0,1 ; labels 0\nend\n",
     ":3: twisting 1: name defined twice in case X"),
    ("case X\n  nonreduced A = 0,1 ; labels 1\n  rubbish A = 2,1 ; labels 0\nend\n",
     ":3: rubbish A: name defined twice in case X"),
    ("case X\n  group E9\n  parabolic 1\n  covers 1\n  black 1\nend\n",
     ":6: case X: invalid simple type E9"),
    ("case X\n  group Q7\n  parabolic 1\n  covers 1\n  black 1\nend\n",
     ":6: case X: cannot parse type string 'Q7'"),
    ("case X\n  group E7\n  parabolic 1\n  covers 1\n  black 1,8\nend\n",
     ":6: case X: black vertices [8] out of range 1..7 for E7"),
    ("case X\n  group G2\n  parabolic 1\n  covers 1\n  black 2,1\nend\n",
     ":6: case X: no white vertex"),
    ("case X\n  arrow A 1\nend\n",
     ":2: expected 'arrow TAIL TWISTING HEAD', got 'arrow A 1'"),
    ("case X\n  twisting 1 = 1 ; 1\nend\n",
     ":2: expected 'twisting NAME = VECTOR ; labels LABELS', got 'twisting 1 = 1 ; 1'"),
    ("case X\n  twisting 1 = 1 ; bogus 1\nend\n",
     ":2: expected 'twisting NAME = VECTOR ; labels LABELS', got 'twisting 1 = 1 ; bogus 1'"),
    ("case X\n  twisting 1 : 1 ; labels 1\nend\n",
     ":2: expected 'twisting NAME = VECTOR ; labels LABELS', got 'twisting 1 : 1 ; labels 1'"),
    ("case X\n  group E7 E8\nend\n", ":2: expected 'group GROUP', got 'group E7 E8'"),
    ("case X\n  covers 1 2\nend\n", ":2: expected 'covers NUMBERS', got 'covers 1 2'"),
    ("case X\n  parabolic 1 2\nend\n", ":2: expected 'parabolic NUMBER', got 'parabolic 1 2'"),
    ("case X\n  group E7\n  black 1,3,6 7\nend\n",
     ":3: expected 'black VERTICES', got 'black 1,3,6 7'"),
    ("case X\n  group E9\n  group E7\n  parabolic 1\n  covers 1\n  black 1\nend\n",
     ":3: case X has a second 'group' line"),
    ("case X\n  black 1\n  black 2\nend\n", ":3: case X has a second 'black' line"),
    ("case\n  group E7\nend\n", ":1: expected 'case ID', got 'case'"),
    ("case 2A extra\n  group E7\nend\n", ":1: expected 'case ID', got 'case 2A extra'"),
], ids=["no-group", "no-black", "before-case", "end-before-case", "no-labels",
        "two-labels", "bad-int", "unrecognised", "unterminated", "empty",
        "case-twice", "name-twice", "name-twice-across-roles", "invalid-group",
        "unknown-type", "vertex-out-of-range", "all-black", "arrow-short",
        "labels-word-missing", "labels-word-wrong", "no-equals-sign",
        "group-two-values", "covers-two-values", "parabolic-two-values",
        "black-two-values", "group-twice", "black-twice", "case-no-id", "case-two-values"])
def test_load_cases_errors_name_the_fault(tmp_path, monkeypatch, text, message):
    (tmp_path / "cases.txt").write_text(text)
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    with pytest.raises(CaseDataError, match=re.escape(message)) as exc:
        load_cases()
    assert "NoneType" not in str(exc.value) and "unpack" not in str(exc.value)


def test_case_line_inside_an_open_stanza_names_the_unterminated_case(tmp_path, monkeypatch):
    # the bundled data with its first 'end' deleted: case 1A runs into case 2A
    lines = data_path("cases.txt").read_text().splitlines(keepends=True)
    del lines[next(k for k, line in enumerate(lines) if line.strip() == "end")]
    lineno = lines.index("case 2A\n") + 1
    (tmp_path / "cases.txt").write_text("".join(lines))
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    with pytest.raises(CaseDataError) as exc:
        load_cases()
    path = tmp_path / "cases.txt"
    assert str(exc.value) == f"{path}:{lineno}: case 1A has no 'end' before case 2A"


def test_negative_named_weight_is_not_a_positive_weight(cases):
    case = cases["2A"]._replace(rubbish={"a": (-2, -1)})
    report = verify_case(case)
    assert not report.passed and report.failures() == ["weight a"]
    assert "(-2, -1) is not a positive weight" in report.lines[-1]["detail"]


def _bracket_probe(g, chi1, table):
    """The positive weights chi2 such that some root of chi1 plus some root
    of chi2 is a root, read from the rows of chi1 in table, the root-sum
    table of g's type."""
    hit = table[g.component_indices(chi1)].any(axis=0)
    return {g.positive_weights[c - 1] for c in set(g._component_of[hit].tolist()) - {0}}


def _seeded_gradings():
    rng = np.random.default_rng(10)
    for name in ("B5", "C5", "D6", "F4", "G2"):
        rank = int(name[1:])
        for _ in range(4):
            black = [v for v in range(1, rank + 1) if rng.random() < 0.5]
            if len(black) < rank:
                yield grade(name, black)


def test_bracket_reach_equals_the_table_probe(cases):
    gradings = [compute_grading(diagram(c.group, c.black)) for c in cases.values()]
    pairs = arrows = 0
    for g in gradings + list(_seeded_gradings()):
        table = g.rs.root_sum_is_root
        probe = {chi: _bracket_probe(g, chi, table) for chi in g.positive_weights}
        for chi1, want in probe.items():
            reach = g.bracket_reach(chi1)
            assert g.bracket_reach(chi1) is reach  # cached
            assert reach == want
            # a root sum across the two components makes the head a weight
            assert all(g.is_positive_weight(tuple(a + b for a, b in zip(chi1, chi2)))
                       for chi2 in reach)
            pairs += len(probe)
        # every positive weight twisting: the arrows are the probe's pairs
        wd = build_weight_diagram(g, list(g.positive_weights))
        assert list(wd.arrows) == [(v, mu, tuple(a + b for a, b in zip(v, mu)))
                                   for v in sorted(set(wd.nonreduced) | set(wd.rubbish))
                                   for mu in g.positive_weights if mu in probe[v]]
        arrows += len(wd.arrows)
    assert pairs > 5000 and arrows > 1000


SWEEP_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 8)]
               + [f"C{r}" for r in range(3, 8)] + [f"D{r}" for r in range(4, 8)]
               + ["E6", "E7", "E8", "F4", "G2", "A20", "B14", "C14", "D24"])
#: Large gradings, by type and white vertices.
SWEEP_LARGE = (("B60", (20, 40)), ("A99", (1, 50)), ("D60", (2, 30, 59)), ("C40", (1, 5)))


def _sweep_gradings():
    rng = np.random.default_rng(19)
    for name in SWEEP_TYPES:
        rank = int(name[1:])
        for _ in range(12):
            black = [v for v in range(1, rank + 1) if rng.random() < 0.5]
            if len(black) < rank:
                yield grade(name, black)
    for name, white in SWEEP_LARGE:
        yield grade(name, set(range(1, int(name[1:]) + 1)) - set(white))


def test_bracket_reach_from_highest_roots_equals_the_table_sweep():
    # The tables, up to 25 MB a type, are read from an uncached twin of each
    # type in turn, so none stays on the shared systems after the sweep.
    components, twin = 0, None
    for g in _sweep_gradings():
        if twin is None or twin.name != g.rs.name:
            twin = RootSystem(g.rs.kind, g.rs.rank)
        for chi in g.positive_weights:
            assert g.bracket_reach(chi) == _bracket_probe(g, chi, twin.root_sum_is_root), (
                g.diagram, chi)
            components += 1
    assert components == 6723


def test_case_verification_and_diagram_build_no_sum_table(capsys, monkeypatch):
    reads = sum_table_reads(monkeypatch)
    assert all(report.passed for report in verify_all_cases().values())
    black = ",".join(str(v) for v in range(1, 61) if v not in (20, 40))
    assert main(["diagram", "--json", f"B60/{black}", "--twisting", "1,0;0,1"]) == 0
    assert capsys.readouterr().out
    assert reads == []


def test_bracket_of_non_positive_weights():
    g = compute_grading(diagram("E7", (1, 3, 4, 6, 7)))
    for chi1 in ((0, -1), (9, 9), (0, 0)):
        with pytest.raises(ValueError, match="not a positive weight"):
            g.bracket_reach(chi1)
    assert (0, -1) not in g.bracket_reach((1, 1))


def test_diagram_without_vertices_does_no_bracket_work(monkeypatch):
    def refuse(g, chi):
        raise AssertionError("bracket work on a diagram with no vertices")

    monkeypatch.setattr(Grading, "bracket_reach", refuse)
    g = grade("A5", [2, 4])  # type A: every weight is reduced
    wd = build_weight_diagram(g, [(1, 0, 0), (0, 1, 0)])
    assert set(wd.nonreduced) | set(wd.rubbish) == set() and wd.arrows == ()
