"""Mutation controls for `verify-all`: each test plants one defect and
asserts that exactly the report lines checking it turn to FAIL and that
the command exits 1.  A clean run passes, so each failure is the plant's.

Every cache in the package is cleared before and after a test, so no
result computed with a plant outlives it and none computed before it
hides it.
"""

import contextlib
import io
import json
import shutil
import sys

import numpy as np
import pytest

from parabolics import ampleness, classify, cli, cxlinalg, grading, mpchar, rootsys, walkdiag


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("parabolics"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def plant(monkeypatch):
    _clear_caches()
    yield monkeypatch
    monkeypatch.undo()
    _clear_caches()


def _verify_all_lines() -> tuple[int, list[dict]]:
    """The exit code of `verify-all --trials 10` and its failed lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify-all", "--trials", "10", "--json"])
    return code, [l for l in json.loads(out.getvalue())["lines"] if not l["ok"]]


def _verify_all() -> tuple[int, list[str]]:
    """The exit code of `verify-all --trials 10` and its failed anchors."""
    code, failed = _verify_all_lines()
    return code, [l["anchor"] for l in failed]


def _data_copy(tmp_path, plant, filename, old, new):
    """Point the loaders at a copy of the bundled data whose first `old`
    in `filename` reads `new`."""
    for name in ("cases.txt", "table.txt"):
        shutil.copy(walkdiag.data_path(name), tmp_path / name)
    text = (tmp_path / filename).read_text()
    assert old in text
    (tmp_path / filename).write_text(text.replace(old, new, 1))
    plant.setenv(walkdiag.DATA_DIR_ENV, str(tmp_path))


def test_clean_run_passes(plant):
    assert _verify_all() == (0, [])


def test_simply_laced_b_bond_fails_the_b_root_counts(plant):
    # B_n with its last bond simply laced is A_n: n(n+1)/2 positive roots, not n^2
    cartan = rootsys.cartan_matrix

    def simply_laced(kind, rank):
        C = cartan(kind, rank)
        if kind == "B":
            C[rank - 1, rank - 2] = -1
        return C

    plant.setattr(rootsys, "cartan_matrix", simply_laced)
    assert _verify_all() == (1, [f"root count B{rank}" for rank in range(2, 9)])


def test_scaled_adjoint_for_mp_inverse_fails_penrose(plant):
    def scaled_adjoint(F):
        F = np.asarray(F, dtype=complex)
        return F.conj().T / np.linalg.norm(F) ** 2

    plant.setattr(cxlinalg, "mp_inverse", scaled_adjoint)
    assert _verify_all() == (1, ["penrose equations (10 trials)"])


def test_scaled_lemma_b_fails_both_characteristic_lines(plant):
    solve = mpchar.lemma_B_from_A

    def scaled_b(A, space):
        sol = solve(A, space)
        return sol._replace(B=sol.B * (1 + 1e-6))

    plant.setattr(mpchar, "lemma_B_from_A", scaled_b)
    assert _verify_all() == (1, ["characteristic equations (sym, 10 trials)",
                                 "characteristic equations (skew, 10 trials)"])


def test_changed_case_arrow_fails_its_case(plant, tmp_path):
    # the first "arrow B 1 a" is case 2A's
    _data_copy(tmp_path, plant, "cases.txt", "arrow B 1 a", "arrow B 1 B")
    assert _verify_all() == (1, ["case 2A"])


TABLE_LINE = "table: all 59 entries have >= 2 non-reduced weights"
COMPLETE_LINE = ("table: the 59 entries are exactly the E7/E8 colourings with >= 2 "
                 "non-reduced weights")


def test_table_entry_below_two_nonreduced_weights_fails_the_table(plant, tmp_path):
    # E7/1,2,3,4,5,6 has exactly one non-reduced positive weight; the table
    # lists it and loses E7/1,3,5,7, which has three
    _data_copy(tmp_path, plant, "table.txt", "entry 1 E7 black 1,3,5,7\n",
               "entry 1 E7 black 1,2,3,4,5,6\n")
    code, failed = _verify_all_lines()
    assert (code, [l["anchor"] for l in failed]) == (1, [TABLE_LINE, COMPLETE_LINE])
    assert failed[1]["detail"] == "59 found, 1 unlisted, 1 missing"


def test_nonreduced_count_one_short_fails_the_table(plant):
    # the entries with exactly two non-reduced weights drop below the table's
    # threshold, and out of the colourings found
    count = classify.nonreduced_counts
    plant.setattr(classify, "nonreduced_counts", lambda rs, blacks: count(rs, blacks) - 1)
    assert _verify_all() == (1, [TABLE_LINE, COMPLETE_LINE])


@pytest.mark.parametrize("planted, found", [
    (lambda count: count + 1, 222),  # the 222 E7/E8 colourings with a non-reduced weight
    (lambda count: np.full_like(count, 5), 382),  # all 127 + 255
], ids=["one-over", "constant-5"])
def test_nonreduced_count_too_high_fails_only_completeness(plant, planted, found):
    # every entry still has >= 2, so only the completeness line sees the
    # unlisted colourings
    count = classify.nonreduced_counts
    plant.setattr(classify, "nonreduced_counts", lambda rs, blacks: planted(count(rs, blacks)))
    code, failed = _verify_all_lines()
    assert (code, [l["anchor"] for l in failed]) == (1, [COMPLETE_LINE])
    assert failed[0]["detail"] == f"{found} found, {found - 59} unlisted, 0 missing"


def test_dropped_bracket_component_fails_its_case(plant):
    # case 2A's printed arrow A -1-> B needs the twisting weight 1 in the
    # bracket reach of A; only 2A uses the diagram E7/1,3,4,6,7
    case = walkdiag.load_cases()["2A"]
    tail, mu = case.nonreduced["A"], case.twisting["1"]
    reach = grading.Grading.bracket_reach

    def dropped(g, chi):
        r = reach(g, chi)
        if str(g.diagram) == "E7/1,3,4,6,7" and tuple(chi) == tail:
            assert mu in r
            return r - {mu}
        return r

    plant.setattr(grading.Grading, "bracket_reach", dropped)
    assert _verify_all() == (1, ["case 2A"])


def test_dropped_diagram_arrow_fails_every_case(plant):
    # every bundled case has an arrow, and verify-case checks the diagram
    # that `diagram` prints, so losing its last arrow fails every case
    build = walkdiag.build_weight_diagram

    def dropped(g, twisting):
        wd = build(g, twisting)
        return wd._replace(arrows=wd.arrows[:-1])

    plant.setattr(walkdiag, "build_weight_diagram", dropped)
    assert _verify_all() == (1, [f"case {cid}" for cid in sorted(walkdiag.load_cases())])


def test_scaled_f_fails_only_the_gl_line(plant):
    embed = mpchar.BlockNilpotent.embed

    def scaled_f(x, i, j, m):
        return embed(x, i, j, m) * (1 + 1e-6 if i > j else 1)

    plant.setattr(mpchar.BlockNilpotent, "embed", scaled_f)
    assert _verify_all() == (1, ["gl characteristic (10 trials)"])


def test_refused_degenerate_line_maps_fail_the_1abc_lines(plant):
    # Variants 1A-1C draw a degenerate line map for their input; with every
    # map refused the draw raises, and each trial counts as unverified.
    plant.setattr(ampleness, "is_degenerate_line_map", lambda *args, **kwargs: False)
    code, failed = _verify_all_lines()
    assert code == 1
    assert [l["anchor"] for l in failed] == [f"deform {v} (1 trials)" for v in ("1A", "1B", "1C")]
    for l in failed:
        variant = l["anchor"].split()[1]
        assert l["detail"] == (f"0/1 verified; {variant} seed 0: RuntimeError: "
                               "could not build a degenerate line map")


def test_ample_everywhere_fails_the_nonample_lines(plant):
    # Every variant but 1A-1C and 5C takes a non-ample A; with every span
    # called ample its hypothesis fails, and each trial counts as unverified.
    plant.setattr(ampleness, "ample", lambda *args, **kwargs: True)
    code, failed = _verify_all_lines()
    nonample = [v for v in ampleness.VARIANTS if v not in ("1A", "1B", "1C", "5C")]
    assert code == 1 and len(nonample) == 12
    assert [l["anchor"] for l in failed] == [f"deform {v} (1 trials)" for v in nonample]
    for l in failed:
        variant = l["anchor"].split()[1]
        assert l["detail"] == (f"0/1 verified; {variant} seed 0: HypothesesNotMet: "
                               "A must not be ample")


def _case_failures(cid: str) -> dict[str, str]:
    """The failed lines of `verify_case` for one case, anchor -> detail."""
    return {l["anchor"]: l["detail"] for l in walkdiag.verify_case(walkdiag.load_cases()[cid]).lines
            if not l["ok"]}


def test_changed_printed_label_fails_the_label_line(plant, tmp_path):
    # the first labels in the file are case 1A's twisting weight 1
    _data_copy(tmp_path, plant, "cases.txt", "twisting 1 = 1,0,0 ; labels 1,1,0,0",
               "twisting 1 = 1,0,0 ; labels 1,1,0,1")
    assert _verify_all() == (1, ["case 1A"])
    assert _case_failures("1A") == {
        "black-vertex labels match": "1: computed (1, 1, 0, 0) printed (1, 1, 0, 1)"}


def test_nonreduced_rubbish_fails_its_reducedness_line(plant, tmp_path):
    # case 2A's rubbish a moved onto the non-reduced weight of capital B,
    # with B's labels; the printed arrow B -1-> a then heads nowhere named
    _data_copy(tmp_path, plant, "cases.txt", "rubbish a = 2,1 ; labels 0,0,0,1,0",
               "rubbish a = 1,1 ; labels 1,1,0,1,0")
    assert _verify_all() == (1, ["case 2A"])
    failures = _case_failures("2A")
    assert failures["rubbish a reduced"] == "(1, 1) is non-reduced"
    assert list(failures) == ["rubbish a reduced", "rubbish weights match",
                              "arrow heads all land on vertices", "arrow set matches"]


def test_two_highest_roots_fail_the_label_line(plant):
    # case 2A's capital A given a second highest root; only 2A uses E7/1,3,4,6,7
    case = walkdiag.load_cases()["2A"]
    highest = grading.Grading.highest_root_of

    def doubled(g, chi):
        tops = highest(g, chi)
        if str(g.diagram) == "E7/1,3,4,6,7" and chi == case.nonreduced["A"]:
            return tops * 2
        return tops

    plant.setattr(grading.Grading, "highest_root_of", doubled)
    assert _verify_all() == (1, ["case 2A"])
    assert _case_failures("2A") == {"black-vertex labels match": "A: 2 highest roots"}
