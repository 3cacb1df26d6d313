import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def test_argv_list_is_fixed_and_has_no_repeats():
    runs = output_digests.argvs()
    assert len(runs) == 1369 and len({tuple(argv) for argv in runs}) == 1369
    assert runs[0] == ["verify-all", "--json", "--seed", "0"]
    assert runs[211] == ["spinor", "--m", "6", "--json"]
    assert runs[212] == ["grade", "E6/"]
    assert runs[1100] == ["grade", "E8/2,3,4,5,6,7,8", "--json"]
    # every colouring of F4, G2, B4 and C4 follows E8's
    assert runs[1101] == ["grade", "F4/"] and runs[1196] == ["grade", "C4/2,3,4", "--json"]
    black = ",".join(str(v) for v in range(1, 61) if v not in (20, 40))
    assert runs[1199] == ["diagram", f"D60/{black}", "--twisting", "1,0;0,1", "--json"]
    # classify for the 32 root-count types, A12 and B12; E8 --json is run earlier
    assert runs[1200] == ["classify", "A1"] and runs[1201] == ["classify", "A1", "--json"]
    assert runs[1200:].count(["classify", "E8", "--json"]) == 0
    assert runs[1266] == ["classify", "B12", "--json"]
    # lemma stacks with no generic slice, each map solved alone
    assert runs[1267:1269] == [["lemma", "--u", "8", "--json"],
                               ["lemma", "--u", "3", "--form", "skew", "--json"]]
    # with m = 4 and 6 above, every m that `spinor` accepts
    assert runs[1269:1276] == [["spinor", "--m", m, "--json"] for m in "1235789"]
    # the 18 deform runs of seeds 0-9, then of the task seeds perfbench `deform`
    # times first at workload seed 1
    deform_runs = output_digests.deform_runs
    assert runs[27:207] == [argv for seed in range(10) for argv in deform_runs(seed)]
    assert runs[-93:-3] == [argv for seed in range(100100, 100105) for argv in deform_runs(seed)]
    assert runs[-93] == ["deform", "--variant", "1A", "--seed", "100100", "--json"]
    assert runs[-4] == ["deform", "--variant", "7A", "--k", "3", "--seed", "100104", "--json"]
    # then B, C and D at rank 99
    assert runs[-3:] == [["grade", "B99/1,50", "--json"], ["grade", "C99/2,98", "--json"],
                         ["grade", "D99/1,97,98", "--json"]]


def test_digest_lines_are_repeatable_and_name_the_run():
    picked = [["deform", "--variant", "1C", "--seed", "3", "--json"],
              ["spinor", "--m", "4", "--json"]]
    assert all(argv in output_digests.argvs() for argv in picked)
    first = [output_digests.digest(argv) for argv in picked]
    assert [output_digests.digest(argv) for argv in picked] == first
    for line, argv in zip(first, picked):
        code, sha, rest = line.split(" ", 2)
        assert code == "0" and len(sha) == 64 and rest == " ".join(argv)
    assert first[0].split()[1] != first[1].split()[1]
