import contextlib
import io
import json

import numpy as np
import pytest

from linalg_helpers import flip_generator
from parabolics import ampleness, cxlinalg, grading, mpchar, rootsys
from parabolics.cli import main, parse_diagram


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_parse_diagram():
    d = parse_diagram("E7/1,3,5,7")
    assert d.rs.name == "E7" and d.black == frozenset({1, 3, 5, 7})
    borel = parse_diagram("G2/")
    assert borel.black == frozenset()
    for bad in ("E9/1", "E7", "E7/0", "E7/8", "E7/1,1", "E7/x"):
        with pytest.raises(Exception):
            parse_diagram(bad)


def test_cli_grade():
    code, out = run_cli("grade", "E7/1,3,4,6,7")
    assert code == 0
    assert "non-reduced positive weights: 2" in out
    code, out = run_cli("grade", "E7/1,3,4,6,7", "--json")
    payload = json.loads(out)
    assert payload["nonreduced"] == [[0, 1], [1, 1]]


@pytest.mark.parametrize("diagram", ["A99/1,50", "D60/2,30,59", "A5/2,4", "G2/1",
                                     "E7/1,3,4,6,7"])
def test_grade_json_is_the_indented_dump_of_its_payload(diagram):
    # Type A has no non-reduced weight; G2/1 has one white vertex and E7 two
    # non-reduced weights.
    g = grading.compute_grading(parse_diagram(diagram))
    payload = {
        "diagram": diagram,
        "white": list(g.diagram.white),
        "positive_weights": [
            {"weight": list(w), "size": size, "reduced": g.is_reduced(w),
             "irreducible": g.is_irreducible_component(w)}
            for w, size in zip(g.positive_weights, g.component_sizes)],
        "nonreduced": [list(w) for w in g.positive_nonreduced_weights()],
        "levi_roots": g.levi_size,
    }
    assert run_cli("grade", diagram, "--json") == (0, json.dumps(payload, indent=2) + "\n")


def test_grade_builds_no_root_tuples():
    # `grade` reads the root arrays only: on a freshly built type neither the
    # root tuples nor the root set exist after it, text or --json.
    rootsys.build_root_system.cache_clear()
    for argv in (("grade", "D30/1,15"), ("grade", "D30/1,15", "--json")):
        assert run_cli(*argv)[0] == 0
    rs = rootsys.build_root_system("D", 30)
    assert not {"positive_roots", "roots", "_root_set"} & set(rs.__dict__)
    # the only per-type state of a grading: the positive roots' uint8 rows
    rows = rs.positive_array
    assert rows.dtype == np.uint8 and rows.shape == (30 * 29, 30)
    assert not rows.flags.writeable
    assert rs.contains((1,) + (0,) * 29)  # the views appear once read
    assert {"positive_roots", "roots", "_root_set"} <= set(rs.__dict__)


def test_cli_grade_invalid_type():
    code, out = run_cli("grade", "E9/1")
    assert code == 2 and "error" in out


def test_cli_classify_json():
    code, out = run_cli("classify", "G2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(set(r) == {"black", "nonreduced", "basic_lemma_weakly_ample"}
               for r in rows)


def test_cli_classify_text():
    assert run_cli("classify", "G2") == (0, (
        "black=-                nonreduced=  0 weakly-ample-by-count=True\n"
        "black=1                nonreduced=  1 weakly-ample-by-count=True\n"
        "black=2                nonreduced=  1 weakly-ample-by-count=True\n"
        "3 colourings\n"))


def test_cli_classify_bounds_rank_before_any_colouring(monkeypatch):
    from parabolics import cli

    class Scanned(Exception):
        pass

    def refuse(rs):
        raise Scanned(rs.name)

    monkeypatch.setattr(cli.classify, "scan_parabolics", refuse)
    rank = cli.CLASSIFY_RANK_MAX + 1
    assert run_cli("classify", f"A{rank}") == (2, (
        f"error: classify A{rank}: the scan covers {2 ** rank - 1} colourings; "
        f"the rank must be at most {cli.CLASSIFY_RANK_MAX}\n"))
    # the bound itself is admitted: the scan starts
    with pytest.raises(Scanned):
        run_cli("classify", f"B{cli.CLASSIFY_RANK_MAX}")


def test_cli_diagram_text():
    assert run_cli("diagram", "E7/1,3,4,6,7", "--twisting", "1,0") == (0, (
        "E7/1,3,4,6,7\n"
        "  non-reduced: [(0, 1), (1, 1)]\n"
        "  rubbish:     [(2, 1)]\n"
        "  (0, 1) --(1, 0)--> (1, 1)\n"
        "  (1, 1) --(1, 0)--> (2, 1)\n"))


@pytest.mark.parametrize("twisting, message", [
    ("9,9", "twisting weight (9, 9) is not a positive weight of E7/1,3,4,6,7"),
    ("1,0;1,0", "twisting weight (1, 0) is given twice"),
    ("1,0;0,1;1,0", "twisting weight (1, 0) is given twice"),
], ids=["not-positive", "twice", "twice-apart"])
def test_cli_diagram_refuses_bad_twisting_weights(twisting, message):
    assert run_cli("diagram", "E7/1,3,4,6,7", "--twisting", twisting) == (2, f"error: {message}\n")


def test_cli_diagram():
    code, out = run_cli("diagram", "E7/1,3,4,6,7", "--twisting", "1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rubbish"] == [[2, 1]]
    assert len(payload["arrows"]) == 2


def test_cli_verify_case_single_and_all():
    code, out = run_cli("verify-case", "--case", "2A")
    assert code == 0 and "overall: PASS" in out
    code, out = run_cli("verify-case", "--all")
    assert code == 0
    assert out.count("arrow set matches") == 15
    code, out = run_cli("verify-case", "--case", "9Z")
    assert code == 2 and out.startswith("error: unknown case '9Z'; have ['1A', ")


def test_cli_check_table():
    code, out = run_cli("check-table")
    assert code == 0
    assert out.count("[PASS]") == 59


def test_cli_mp_triple():
    code, out = run_cli("mp-triple", "--blocks", "2,3,2", "--seed", "1")
    assert code == 0 and "overall: PASS" in out


def test_cli_lemma():
    code, out = run_cli("lemma", "--u", "4", "--w", "6", "--form", "skew",
                        "--trials", "5")
    assert code == 0 and "overall: PASS" in out


def test_cli_deform():
    code, out = run_cli("deform", "--variant", "5C", "--seed", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True and "A" in payload["witness"]
    code, _ = run_cli("deform", "--variant", "7A", "--seed", "1", "--k", "3")
    assert code == 0


def test_cli_deform_json_writes_a_list_witness_as_lists_of_complex_parts():
    # 5A's witness is a list of (matrix, vector) pairs
    (M, v), = ampleness.deform(ampleness.random_task("5A", 0)).witness["E"]
    code, out = run_cli("deform", "--variant", "5A", "--json")
    assert code == 0
    assert json.loads(out)["witness"] == {"E": [[
        {"re": M.real.tolist(), "im": M.imag.tolist()},
        {"re": v.real.tolist(), "im": v.imag.tolist()}]]}


@pytest.mark.parametrize("argv, message", [
    (["--variant", "7A", "--k", "0"], "k must be 2 or 3"),
    (["--variant", "7A", "--k", "1"], "k must be 2 or 3"),
    (["--variant", "7A", "--k", "-2"], "k must be 2 or 3"),
    (["--variant", "4A", "--k", "2"], "--k 2: k applies only to a random 7A task"),
], ids=["7A-k0", "7A-k1", "7A-k-2", "4A-k2"])
def test_cli_deform_rejects_bad_k(argv, message):
    code, out = run_cli("deform", *argv)
    assert code == 2 and message in out
    assert "verified" not in out and "Traceback" not in out


def test_cli_deform_k_with_input_rejected_and_valid_k_kept(tmp_path):
    path = tmp_path / "in.json"
    path.write_text("{}")
    code, out = run_cli("deform", "--variant", "7A", "--k", "2", "--input", str(path))
    assert code == 2 and "k applies only to a random 7A task" in out
    code, out = run_cli("deform", "--variant", "7A", "--k", "3", "--json")
    assert code == 0 and np.shape(json.loads(out)["witness"]["v"]["re"]) == (8,)


def test_cli_deform_input_missing_key(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"A": [[1, 0], [0, 1], [0, 0], [0, 0]]}))
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2
    assert "variant 4A" in out and "missing input 'B'" in out and "Traceback" not in out


@pytest.mark.parametrize("text,message", [
    ("null", "inputs must map input names to values, got NoneType"),
    ('"AB"', "inputs must map input names to values, got str"),
    ("[1, 2]", "inputs must map input names to values, got list"),
    ('{"A": [[1, 0], [0, 1], [0, 0], [0, 0]], "B": [[1, 0]], "C": 1}',
     "unknown inputs ['C']; it takes ['A', 'B']"),
])
def test_cli_deform_input_not_an_object_or_unknown_key(tmp_path, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2 and f"variant 4A: {message}" in out and "Traceback" not in out


@pytest.mark.parametrize("content", [None, b"{", b"\xff\xfe", "dir"])
def test_cli_deform_unreadable_input_names_the_file(tmp_path, content):
    # missing, not JSON, not UTF-8, a directory
    path = tmp_path / "in.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2 and out.startswith(f"error: --input {path}: ") and "Traceback" not in out


def test_cli_deform_input_wrong_shape(tmp_path):
    # B must have as many columns as A (k = 2); a (4, 3) B is refused before numpy sees it
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"A": [[1, 0], [0, 1], [0, 0], [0, 0]],
                                "B": [[1, 0, 0]] * 4}))
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2
    assert "variant 4A: input 'B' has shape (4, 3), expected (p, 2)" in out


def test_cli_deform_input_not_numeric(tmp_path):
    # a malformed entry is named by variant and input, in either encoding
    path = tmp_path / "in.json"
    for A in ([["x", 0], [0, 1], [0, 0], [0, 0]],
              {"re": [[1, 0], [0, 1], [0, 0], [0, 0]], "im": [["x", 0], [0, 0], [0, 0], [0, 0]]}):
        path.write_text(json.dumps({"A": A, "B": [[1, 0]]}))
        code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
        assert code == 2
        assert "variant 4A: input 'A' is not a complex array" in out and "Traceback" not in out


@pytest.mark.parametrize("A", [
    "[[1, 0], [0, NaN], [0, 0], [0, 0]]",
    "[[1, 0], [0, Infinity], [0, 0], [0, 0]]",
    "[[1, 0], [0, -Infinity], [0, 0], [0, 0]]",
    '{"re": [[1, 0], [0, 1], [0, 0], [0, 0]], "im": [[0, 0], [0, NaN], [0, 0], [0, 0]]}',
], ids=["nan", "inf", "-inf", "re-im-nan"])
def test_cli_deform_input_non_finite(tmp_path, A):
    # json reads NaN and Infinity as floats; the input is named, not the SVD
    path = tmp_path / "in.json"
    path.write_text(f'{{"A": {A}, "B": [[1, 0], [0, 1]]}}')
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2 and "Traceback" not in out
    assert "variant 4A: input 'A' has non-finite entries" in out


def test_cli_deform_input_subnormal(tmp_path):
    # every entry below the least normal float: refused by name, not by LAPACK
    path = tmp_path / "in.json"
    path.write_text('{"A": [[1, 0], [0, 1e-310], [0, 0], [0, 0]], "B": [[1e-310, 0], [0, 1e-310]]}')
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path))
    assert code == 2 and "Traceback" not in out
    assert "variant 4A: input 'B' is subnormal (1e-310 at most)" in out


def test_cli_deform_input_re_im_encoding(tmp_path):
    # the --json witness encoding is accepted as input: 4A with a non-ample A
    path = tmp_path / "in.json"
    # columns e1 + i e2 (isotropic) and e3: rank 2, radical 1
    path.write_text(json.dumps({"A": {"re": [[1, 0], [0, 0], [0, 1], [0, 0]],
                                      "im": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                                "B": [[1, 0], [0, 1]]}))
    code, out = run_cli("deform", "--variant", "4A", "--input", str(path), "--json")
    assert code == 0 and json.loads(out)["verified"] is True


@pytest.mark.parametrize("v, shapes", [
    ({"re": [1, 0, 0, 1], "im": 0.5}, "re of shape (4,) and im of shape ()"),
    ({"re": 1, "im": [0, 1, 0, 0]}, "re of shape () and im of shape (4,)"),
    ({"re": [[1, 0, 0, 1]], "im": [[0], [1], [0], [0]]},
     "re of shape (1, 4) and im of shape (4, 1)"),
], ids=["scalar-im", "scalar-re", "row-and-column"])
def test_cli_deform_input_re_and_im_of_two_shapes(tmp_path, v, shapes):
    # numpy would broadcast one part against the other; the first case then verified
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"A": {"re": [[1, 0], [0, 0], [0, 1], [0, 0]],
                                      "im": [[0, 0], [1, 0], [0, 0], [0, 0]]}, "v": v}))
    code, out = run_cli("deform", "--variant", "4B", "--input", str(path))
    assert code == 2 and "Traceback" not in out
    assert f"variant 4B: input 'v' has {shapes}" in out


def test_cli_deform_refuses_a_line_inside_the_quadric(tmp_path):
    # every point of span(e1 + i e2, e3 + i e4) is isotropic: A is not degenerate
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"variety": "quadric", "B": [[1, 0], [0, 1]],
                                "A": {"re": [[1, 0], [0, 0], [0, 1], [0, 0]],
                                      "im": [[0, 0], [1, 0], [0, 0], [0, 1]]}}))
    code, out = run_cli("deform", "--variant", "1A", "--input", str(path))
    assert code == 2 and "A must be degenerate" in out and "verified" not in out


# e1 + i e2 and e3: the quadric meets their line only at (1 : 0)
_TANGENT_TO_THE_QUADRIC = {"re": [[1, 0], [0, 0], [0, 1], [0, 0]],
                           "im": [[0, 0], [1, 0], [0, 0], [0, 0]]}
# E11 and E22 + E13: the minors s t, 0 and -t^2 vanish together only at (1 : 0)
_TANGENT_TO_THE_SEGRE = [[1, 0], [0, 0], [0, 1], [0, 0], [0, 1], [0, 0]]


@pytest.mark.parametrize("variety, A, v, message", [
    ("quadric", _TANGENT_TO_THE_QUADRIC, {"re": [1, 0, 0, 0], "im": [0, 1, 0, 0]},
     "v must lie off the cone over the variety"),
    ("segre", _TANGENT_TO_THE_SEGRE, [0, 1, 0, 0, 0, 0],
     "v must lie off the cone over the variety"),
    ("quadric", _TANGENT_TO_THE_QUADRIC, [0, 0, 0, 0], "v must lie off the cone over the variety"),
    ("cubic", _TANGENT_TO_THE_QUADRIC, [1, 0, 0, 0], "unknown variety 'cubic'"),
    (["quadric"], _TANGENT_TO_THE_QUADRIC, [1, 0, 0, 0], "unknown variety ['quadric']"),
], ids=["isotropic-v", "rank-one-v", "zero-v", "cubic", "list"])
def test_cli_deform_1c_refuses_inputs_off_its_hypotheses(tmp_path, variety, A, v, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"variety": variety, "A": A, "v": v}))
    code, out = run_cli("deform", "--variant", "1C", "--input", str(path))
    assert code == 2 and out == f"error: {message}\n"


def test_cli_spinor():
    code, out = run_cli("spinor", "--m", "4")
    assert code == 0 and "overall: PASS" in out


def test_cli_verify_all_deterministic_and_passing():
    code, out1 = run_cli("verify-all", "--seed", "7", "--trials", "10", "--json")
    assert code == 0
    code, out2 = run_cli("verify-all", "--seed", "7", "--trials", "10", "--json")
    assert out1 == out2  # byte-identical reruns for a fixed seed
    payload = json.loads(out1)
    assert payload["passed"]
    anchors = [l["anchor"] for l in payload["lines"]]
    assert sum(1 for a in anchors if a.startswith("case ")) == 15
    assert any(a.startswith("data cases.txt") for a in anchors)


def test_cli_verify_all_seed_1_passes(monkeypatch):
    # skew trial 15 at seed 1 has an omega-Gram on Im A with singular values
    # down to 9.35e-4.  A B built through an inverse of the whole splitting
    # squared that conditioning into herm_ab: 1.85e-09 against the 1e-9
    # gate, 938 u ||A|| ||B||.  Without the symmetry given back to N it is
    # 161 u ||A|| ||B||; the rounding of A @ B alone stays under 64.
    solved, solve = [], mpchar.lemma_B_from_A

    def recorded(A, space):
        solved.append((solve(A, space), space))
        return solved[-1][0]

    monkeypatch.setattr(mpchar, "lemma_B_from_A", recorded)
    code, out = run_cli("verify-all", "--seed", "1", "--trials", "100", "--json")
    assert code == 0, [l for l in json.loads(out)["lines"] if not l["ok"]]
    assert {space.kind for _, space in solved} == {"symmetric-Id", "symplectic-I"}
    for sol, space in solved:
        floor = np.finfo(float).eps * cxlinalg.frobenius(sol.A) * cxlinalg.frobenius(sol.B)
        assert (mpchar.lemma_residuals(sol, space)["herm_ab"] <= 64 * floor).all()


def test_cli_verify_all_detects_corrupt_data(tmp_path, monkeypatch):
    import parabolics.walkdiag as wd

    src = wd.data_path("cases.txt").read_text()
    (tmp_path / "cases.txt").write_text(src.replace("arrow A 1 B", "arrow A 1 a", 1))
    (tmp_path / "table.txt").write_text(wd.data_path("table.txt").read_text())
    monkeypatch.setenv(wd.DATA_DIR_ENV, str(tmp_path))
    code, out = run_cli("verify-case", "--all")
    assert code == 1 and "FAIL" in out


def test_cli_negative_case_weight_fails_only_its_case(tmp_path, monkeypatch):
    import parabolics.walkdiag as wd

    clean = json.loads(run_cli("verify-all", "--trials", "1", "--json")[1])["lines"]
    src = wd.data_path("cases.txt").read_text()
    assert "  rubbish a = 2,1 ;" in src.split("case 2A")[1].split("end")[0]
    (tmp_path / "cases.txt").write_text(src.replace("rubbish a = 2,1 ;", "rubbish a = -2,-1 ;", 1))
    (tmp_path / "table.txt").write_text(wd.data_path("table.txt").read_text())
    monkeypatch.setenv(wd.DATA_DIR_ENV, str(tmp_path))
    code, out = run_cli("verify-all", "--trials", "1", "--json")
    lines = json.loads(out)["lines"]
    assert code == 1 and [l["anchor"] for l in lines] == [l["anchor"] for l in clean]
    assert [l["anchor"] for l in lines if not l["ok"]] == ["case 2A"]
    code, out = run_cli("verify-case", "--case", "2A")
    assert code == 1 and "[FAIL] case 2A: weight a" in out and "error:" not in out


def test_parse_diagram_reports_bad_token_position():
    for text, pos in [("E7/1,x", 5), ("E7/x", 3), ("E7/1,3, y", 8), ("E7/1,,3", 5)]:
        with pytest.raises(ValueError, match=rf"\(position {pos}\)"):
            parse_diagram(text)
    code, out = run_cli("grade", "E7/1,x")
    assert code == 2 and "(position 5)" in out


@pytest.mark.parametrize("text, message", [
    ("A\u00b2/1", "cannot parse type string 'A\u00b2'"),
    ("A\u0663/1", "cannot parse type string 'A\u0663'"),
    ("E7/1,\u00b2", "'E7/1,\u00b2': bad vertex '\u00b2' (position 5)"),
    ("E7/\u0661,3", "'E7/\u0661,3': bad vertex '\u0661' (position 3)"),
])
def test_cli_grade_refuses_non_ascii_digits_by_name(text, message):
    # isdigit() holds for '²' (int() then fails bare) and for '١' (int() reads 1).
    code, out = run_cli("grade", text)
    assert code == 2 and message in out and "invalid literal" not in out


@pytest.mark.parametrize("command", ["verify-all", "lemma"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_rejects_trials_below_one(command, trials):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--trials", trials)
    assert exc.value.code == 2


def test_cli_trials_error_names_the_option(capsys):
    with pytest.raises(SystemExit):
        main(["verify-all", "--trials", "0"])
    err = capsys.readouterr().err
    assert "--trials" in err and "[PASS]" not in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_cli_spinor_rejects_m_below_one(m):
    code, out = run_cli("spinor", "--m", m)
    assert code == 2
    assert f"m = {m}" in out
    assert "dim S+" not in out and "Traceback" not in out


def test_flipped_rho_generator_fails_the_spinor_checks(monkeypatch):
    # Mutation control: a rho whose generator e_1 has every sign flipped
    # still squares to zero on its own, but breaks rho(v)^2 = (v, v) Id.
    from parabolics import cli, spinor

    flipped = flip_generator(spinor.SpinModule(4), 0)
    monkeypatch.setattr(cli, "spin_module", lambda m: flipped if m == 4 else spinor.spin_module(m))
    code, out = run_cli("verify-all", "--trials", "10", "--json")
    lines = {l["anchor"]: l["ok"] for l in json.loads(out)["lines"]}
    assert code == 1 and lines["spinor rho(v)^2 = (v,v) Id (10 trials)"] is False
    code, out = run_cli("spinor", "--m", "4")
    assert code == 1 and "[FAIL] spinor m=4: rho(v)^2 = (v,v) Id" in out
    monkeypatch.undo()
    assert run_cli("spinor", "--m", "4")[0] == 0


@pytest.mark.parametrize("argv, option", [
    (["lemma", "--u", "-1"], "--u"),
    (["lemma", "--w", "-2"], "--w"),
    (["mp-triple", "--blocks", "2,-1"], "--blocks"),
    (["mp-triple", "--blocks", "2,x"], "--blocks"),
], ids=["u-1", "w-2", "blocks-negative", "blocks-not-int"])
def test_cli_dimension_errors_name_the_option(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"argument {option}:" in err
    assert "negative dimensions" not in err and "invalid literal" not in err


@pytest.mark.parametrize("argv, option", [
    (["mp-triple", "--blocks", "3"], "--blocks"),
    (["lemma", "--w", "0"], "--w"),
    (["lemma", "--u", "0"], "--u"),
], ids=["one-block", "w0", "u0"])
def test_cli_checks_over_nothing_are_rejected(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and f"argument {option}:" in captured.err
    assert "PASS" not in captured.out + captured.err


def test_cli_lemma_odd_skew_dimension_names_the_option(monkeypatch):
    from parabolics import cli

    def refuse(*args):
        raise AssertionError("drew before refusing --w")

    monkeypatch.setattr(cli.np.random, "default_rng", refuse)
    code, out = run_cli("lemma", "--form", "skew", "--w", "7")
    assert code == 2
    assert out == "error: --w 7: the skew form needs an even dimension\n"


def test_cli_spinor_bounds_m_before_any_work(monkeypatch):
    from parabolics import cli

    class Built(Exception):
        pass

    def refuse(m):
        raise Built(m)

    monkeypatch.setattr(cli, "spin_module", refuse)
    code, out = run_cli("spinor", "--m", "40")
    assert code == 2
    assert "--m 40" in out and f"at most {cli.SPINOR_M_MAX}" in out
    # the bound itself is admitted: the work starts
    with pytest.raises(Built):
        run_cli("spinor", "--m", str(cli.SPINOR_M_MAX))


@pytest.mark.parametrize("argv", [
    ["mp-triple"], ["lemma"], ["deform", "--variant", "4A"], ["spinor"], ["verify-all"],
], ids=lambda argv: argv[0])
def test_cli_negative_seed_names_the_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --seed:" in err
    assert "non-negative integer" not in err


def test_cli_twisting_error_names_the_option_and_token(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diagram", "E7/1,3,4,6,7", "--twisting", "1,x"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --twisting:" in err and "'x'" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("argv", [[], ["--case", "2A", "--all"]], ids=["neither", "both"])
def test_cli_verify_case_takes_exactly_one_of_case_and_all(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-case"] + argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and "--case" in captured.err and "--all" in captured.err
    assert "PASS" not in captured.out + captured.err and "unknown case" not in captured.err
