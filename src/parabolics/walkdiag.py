"""Weight-diagram calculus: twisting weights, rubbish weights, arrows.

A weight diagram is built over a grading from a chosen list of twisting
weights.  Its vertices are the non-reduced positive weights together with
the rubbish weights; its arrows are labelled by twisting weights, with an
arrow chi1 -> chi2 exactly when the bracket of the chi1 and twisting
components fills the chi2 component.

Because every component is an irreducible module of the Levi (a fact the
test suite asserts for each bundled case), the bracket of two components
is either zero or the whole head component, so the arrow criterion
reduces to the existence of two roots, one per component, whose sum is a
root.  No structure constants are needed.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import os
from dataclasses import dataclass
from pathlib import Path

from .grading import Grading, Weight, diagram, compute_grading
from .report import Report

#: Environment variable overriding the bundled data directory.
DATA_DIR_ENV = "PARABOLICS_DATA_DIR"


class CaseDataError(ValueError):
    """Raised when the bundled case data is missing or malformed."""


def rubbish_weights(g: Grading, twisting: list[Weight]) -> set[Weight]:
    """Reduced positive weights reachable from a non-reduced one by twisting.

    Reachable means equal to chi + sum of twisting weights (each usable any
    number of times), chi non-reduced positive.  Twisting weights have
    non-negative coordinates, so a bounded breadth-first closure inside the
    coordinate box of the positive weights enumerates the reachable set
    exactly.
    """
    twisting = [tuple(t) for t in twisting]
    for t in twisting:
        if not g.is_weight(t) or min(t) < 0 or not any(t):
            raise ValueError(f"twisting weight {t} is not a positive weight of {g.diagram}")
    if not twisting:
        return set()
    box = tuple(max(w[i] for w in g.positive_weights) for i in range(len(g.positive_weights[0])))
    seen: set[Weight] = set(g.positive_nonreduced_weights())
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
    return {u for u in seen if g.is_weight(u) and g.is_reduced(u)}


def bracket_is_full(g: Grading, chi1: Weight, chi2: Weight) -> bool:
    """Whether some root of chi1 plus some root of chi2 is a root."""
    return g.is_positive_weight(chi1) and tuple(chi2) in g.bracket_reach(chi1)


def arrow_head(g: Grading, chi1: Weight, mu: Weight) -> Weight | None:
    """Head of the mu-labelled arrow at chi1, or None if there is no arrow."""
    chi1, mu = tuple(chi1), tuple(mu)
    if not (g.is_positive_weight(chi1) and g.is_positive_weight(mu)):
        raise ValueError("arrow endpoints must be positive weights")
    head = tuple(a + b for a, b in zip(chi1, mu))
    if not g.is_weight(head):
        return None
    return head if bracket_is_full(g, chi1, mu) else None


@dataclass(frozen=True)
class WeightDiagram:
    grading: Grading
    twisting: tuple[Weight, ...]
    nonreduced: tuple[Weight, ...]
    rubbish: tuple[Weight, ...]
    #: (tail weight, twisting weight, head weight)
    arrows: tuple[tuple[Weight, Weight, Weight], ...]

    @property
    def vertices(self) -> tuple[Weight, ...]:
        return tuple(sorted(set(self.nonreduced) | set(self.rubbish)))


def build_weight_diagram(g: Grading, twisting: list[Weight]) -> WeightDiagram:
    twisting = [tuple(t) for t in twisting]
    nonreduced = g.positive_nonreduced_weights()
    rubbish = tuple(sorted(rubbish_weights(g, twisting)))
    vertices = set(nonreduced) | set(rubbish)
    arrows = []
    for v in sorted(vertices):
        for mu in twisting:
            head = arrow_head(g, v, mu)
            if head is not None:
                # heads stay inside the vertex set: a reduced head is rubbish
                # by construction, a non-reduced one is a vertex already
                arrows.append((v, mu, head))
    return WeightDiagram(
        grading=g,
        twisting=tuple(twisting),
        nonreduced=nonreduced,
        rubbish=rubbish,
        arrows=tuple(arrows),
    )


# --------------------------------------------------------------- case data


@dataclass(frozen=True)
class CaseSpec:
    """One bundled verification case, transcribed from the printed source."""

    case_id: str
    group: str
    parabolic: int
    covers: tuple[int, ...]
    black: tuple[int, ...]
    #: name -> white-coefficient vector, split by role
    nonreduced: dict[str, Weight]
    twisting: dict[str, Weight]
    rubbish: dict[str, Weight]
    #: name -> Dynkin labels of the component's highest root at black vertices
    black_labels: dict[str, tuple[int, ...]]
    #: (tail name, twisting name, head name)
    arrows: tuple[tuple[str, str, str], ...]
    note: str = ""

    def all_named(self) -> dict[str, Weight]:
        return {**self.nonreduced, **self.twisting, **self.rubbish}


def data_path(filename: str) -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        p = Path(override) / filename
    else:
        p = Path(str(importlib.resources.files("parabolics").joinpath("data", filename)))
    if not p.is_file():
        raise CaseDataError(f"data file not found: {p}")
    return p


def data_checksum(filename: str) -> str:
    return hashlib.sha256(data_path(filename).read_bytes()).hexdigest()


def _parse_vector(s: str) -> Weight:
    return tuple(int(x) for x in s.split(","))


def load_cases(path: Path | None = None) -> dict[str, CaseSpec]:
    path = path or data_path("cases.txt")
    cases: dict[str, CaseSpec] = {}
    cur: dict | None = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if cur is None and not line.startswith("case "):
                raise ValueError(f"{line.split()[0]!r} line before any 'case' line")
            if line.startswith("case "):
                cur = {
                    "case_id": line.split()[1], "nonreduced": {}, "twisting": {},
                    "rubbish": {}, "black_labels": {}, "arrows": [], "note": "",
                }
            elif line == "end":
                if missing := sorted({"group", "parabolic", "covers", "black"} - set(cur)):
                    raise ValueError(f"case {cur['case_id']} has no {missing[0]!r} line")
                parsed = CaseSpec(
                    case_id=cur["case_id"], group=cur["group"],
                    parabolic=cur["parabolic"], covers=cur["covers"],
                    black=cur["black"], nonreduced=cur["nonreduced"],
                    twisting=cur["twisting"], rubbish=cur["rubbish"],
                    black_labels=cur["black_labels"],
                    arrows=tuple(cur["arrows"]), note=cur["note"],
                )
                cases[parsed.case_id] = parsed
                cur = None
            elif line.startswith("group "):
                cur["group"] = line.split()[1]
            elif line.startswith("parabolic "):
                cur["parabolic"] = int(line.split()[1])
            elif line.startswith("covers "):
                cur["covers"] = tuple(int(x) for x in line.split()[1].split(","))
            elif line.startswith("note "):
                cur["note"] = line[5:]
            elif line.startswith("black "):
                cur["black"] = _parse_vector(line.split()[1])
            elif line.startswith(("nonreduced ", "twisting ", "rubbish ")):
                role, name, _eq, rest = line.split(None, 3)
                if rest.count(";") != 1:
                    raise ValueError(f"{role} {name} needs one '; labels' part")
                vec_part, labels_part = rest.split(";")
                cur[role][name] = _parse_vector(vec_part.strip())
                cur["black_labels"][name] = _parse_vector(labels_part.split()[1])
            elif line.startswith("arrow "):
                _, t, l, h = line.split()
                cur["arrows"].append((t, l, h))
            else:
                raise CaseDataError(f"unrecognised line: {raw!r}")
        except CaseDataError:
            raise
        except Exception as exc:
            raise CaseDataError(f"{path}:{lineno}: {exc}") from exc
    if cur is not None:
        raise CaseDataError(f"{path}: unterminated case stanza {cur.get('case_id')}")
    if not cases:
        raise CaseDataError(f"{path}: no case stanzas found")
    return cases


# ------------------------------------------------------------ verification


def verify_case(case: CaseSpec) -> Report:
    """Recompute one case from its colouring and compare with the transcript.

    Checked, per the acceptance contract: every named vector is a positive
    weight with the stated reduced/non-reduced status, the capitals are
    exactly the non-reduced positive weights, the small letters are exactly
    the rubbish weights for the stated twisting list, and the computed
    arrow set equals the printed one.  The printed Dynkin labels at black
    vertices are verified as well.
    """
    report = Report()
    g = compute_grading(diagram(case.group, case.black))
    named = case.all_named()

    for name, vec in named.items():
        if not g.is_positive_weight(vec):
            report.add(f"weight {name}", False, f"{vec} is not a positive weight")
            return report
    report.add("all named vectors are positive weights", True)

    computed_nonred = set(g.positive_nonreduced_weights())
    report.add(
        "non-reduced weights match",
        set(case.nonreduced.values()) == computed_nonred,
        f"printed {sorted(case.nonreduced.values())} computed {sorted(computed_nonred)}",
    )
    # a non-reduced twisting weight must be one of the printed capitals
    stray = [name for name, vec in case.twisting.items()
             if not g.is_reduced(vec) and vec not in set(case.nonreduced.values())]
    report.add("non-reduced twisting weights are capitals", not stray, ", ".join(stray))
    for name, vec in case.rubbish.items():
        if not g.is_reduced(vec):
            report.add(f"rubbish {name} reduced", False, f"{vec} is non-reduced")

    computed_rubbish = rubbish_weights(g, list(case.twisting.values()))
    report.add(
        "rubbish weights match",
        computed_rubbish == set(case.rubbish.values()),
        f"printed {sorted(case.rubbish.values())} computed {sorted(computed_rubbish)}",
    )

    # arrows, compared as sets of name triples; vectors may share names
    # across roles, so heads are resolved to vertex names
    vertex_name: dict[Weight, str] = {}
    for name, vec in {**case.nonreduced, **case.rubbish}.items():
        vertex_name.setdefault(vec, name)
    computed_arrows: set[tuple[str, str, str]] = set()
    unnamed_heads: list[str] = []
    for vname, vec in {**case.nonreduced, **case.rubbish}.items():
        for tname, tvec in case.twisting.items():
            head = arrow_head(g, vec, tvec)
            if head is None:
                continue
            if head not in vertex_name:
                unnamed_heads.append(f"{vname}-{tname}->{head}")
                continue
            computed_arrows.add((vname, tname, vertex_name[head]))
    report.add("arrow heads all land on vertices", not unnamed_heads, "; ".join(unnamed_heads))
    printed_arrows = set(case.arrows)
    report.add(
        "arrow set matches",
        computed_arrows == printed_arrows,
        f"missing {sorted(printed_arrows - computed_arrows)} "
        f"extra {sorted(computed_arrows - printed_arrows)}",
    )

    label_bad = []
    blacks = sorted(case.black)
    for name, vec in named.items():
        tops = g.highest_root_of(vec)
        if len(tops) != 1:
            label_bad.append(f"{name}: {len(tops)} highest roots")
            continue
        labels = tuple(g.rs.pairing(tops[0], b) for b in blacks)
        if labels != case.black_labels[name]:
            label_bad.append(f"{name}: computed {labels} printed {case.black_labels[name]}")
    report.add("black-vertex labels match", not label_bad, "; ".join(label_bad))
    return report


def verify_all_cases(cases: dict[str, CaseSpec] | None = None) -> dict[str, Report]:
    if cases is None:
        cases = load_cases()
    return {cid: verify_case(spec) for cid, spec in sorted(cases.items())}
