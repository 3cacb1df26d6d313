"""Weight-diagram calculus: twisting weights, rubbish weights, arrows.

A weight diagram is built over a grading from a chosen list of twisting
weights.  Its vertices are the non-reduced positive weights together with
the rubbish weights; its arrows are labelled by twisting weights, with an
arrow chi1 -> chi2 exactly when the bracket of the chi1 and twisting
components fills the chi2 component.  `verify_case` checks a bundled case
against `build_weight_diagram`, whose diagrams `parabolics diagram` prints.

Because every component is an irreducible module of the Levi (a fact the
test suite asserts for each bundled case), the bracket of two components
is either zero or the whole head component, and the tail component is
generated by its highest root vector.  So the arrow criterion reduces to
whether the tail's highest root plus some root of the twisting component
is a root.  No structure constants are needed.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grading import Grading, Weight, diagram, compute_grading
from .report import Report

#: Environment variable overriding the bundled data directory.
DATA_DIR_ENV = "PARABOLICS_DATA_DIR"


class CaseDataError(ValueError):
    """Raised when the bundled case data is missing or malformed."""


def _check_colouring(item: str, group: str, black) -> None:
    """Refuse a colouring of no simple type, naming its data item."""
    try:
        diagram(group, black)
    except ValueError as exc:
        raise ValueError(f"{item}: {exc}") from exc


def rubbish_weights(g: Grading, twisting: list[Weight]) -> set[Weight]:
    """Reduced positive weights reachable from a non-reduced one by twisting.

    Reachable means equal to chi + sum of twisting weights (each usable any
    number of times), chi non-reduced positive.  Twisting weights have
    non-negative coordinates, so a breadth-first closure inside the box up
    to the highest root's weight enumerates the reachable set exactly; each
    round adds every twisting weight to the whole frontier in one array sum.
    Each twisting weight must be a positive weight, given once.
    """
    twisting = [tuple(t) for t in twisting]
    for k, t in enumerate(twisting):
        if not g.is_positive_weight(t):
            raise ValueError(f"twisting weight {t} is not a positive weight of {g.diagram}")
        if t in twisting[:k]:
            raise ValueError(f"twisting weight {t} is given twice")
    if not twisting or not (nonreduced := g.positive_nonreduced_weights()):
        return set()
    top = g.rs.positive_array[-1, [v - 1 for v in g.diagram.white]]
    steps, reach, frontier = np.array(twisting), set(nonreduced), np.array(nonreduced)
    while len(frontier):
        up = (frontier[:, None] + steps).reshape(-1, len(top))
        new = set(map(tuple, up[(up <= top).all(axis=1)].tolist())) - reach
        reach |= new
        frontier = np.array(list(new)).reshape(-1, len(top))
    return {w for w in reach.intersection(g.positive_weights) if g.is_reduced(w)}


class WeightDiagram(NamedTuple):
    twisting: tuple[Weight, ...]
    nonreduced: tuple[Weight, ...]
    rubbish: tuple[Weight, ...]
    #: (tail weight, twisting weight, head weight)
    arrows: tuple[tuple[Weight, Weight, Weight], ...]


def build_weight_diagram(g: Grading, twisting: list[Weight]) -> WeightDiagram:
    twisting = [tuple(t) for t in twisting]
    nonreduced = g.positive_nonreduced_weights()
    rubbish = tuple(sorted(rubbish_weights(g, twisting)))
    vertices = set(nonreduced) | set(rubbish)
    arrows = []
    # rubbish_weights has checked the twisting weights.  A root sum across v
    # and mu makes v + mu a weight, and a vertex: a reduced head is rubbish
    # by construction, a non-reduced one is a vertex already.
    for v in sorted(vertices):
        for mu in twisting:
            if mu in g.bracket_reach(v):
                arrows.append((v, mu, tuple(a + b for a, b in zip(v, mu))))
    return WeightDiagram(
        twisting=tuple(twisting),
        nonreduced=nonreduced,
        rubbish=rubbish,
        arrows=tuple(arrows),
    )


# --------------------------------------------------------------- case data


class CaseSpec(NamedTuple):
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


#: The stanza lines that hold one value: the word for it in an error, and its parser.
_ONE_VALUE = {"group": ("GROUP", str), "parabolic": ("NUMBER", int),
              "covers": ("NUMBERS", _parse_vector), "black": ("VERTICES", _parse_vector)}


def load_cases() -> dict[str, CaseSpec]:
    path = data_path("cases.txt")
    cases: dict[str, CaseSpec] = {}
    cur: dict | None = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *values = line.split()
        try:
            if key == "case":
                if len(values) != 1:
                    raise ValueError(f"expected 'case ID', got {line!r}")
                if cur is not None:
                    raise ValueError(f"case {cur['case_id']} has no 'end' before case {values[0]}")
                if (case_id := values[0]) in cases:
                    raise ValueError(f"case {case_id} is defined twice")
                cur = {
                    "case_id": case_id, "nonreduced": {}, "twisting": {},
                    "rubbish": {}, "black_labels": {}, "arrows": [], "note": "",
                }
            elif cur is None:
                raise ValueError(f"{key!r} line before any 'case' line")
            elif line == "end":
                if missing := sorted({"group", "parabolic", "covers", "black"} - set(cur)):
                    raise ValueError(f"case {cur['case_id']} has no {missing[0]!r} line")
                _check_colouring(f"case {cur['case_id']}", cur["group"], cur["black"])
                cases[cur["case_id"]] = CaseSpec(**{**cur, "arrows": tuple(cur["arrows"])})
                cur = None
            elif key in _ONE_VALUE:
                word, parse = _ONE_VALUE[key]
                if len(values) != 1:
                    raise ValueError(f"expected '{key} {word}', got {line!r}")
                if key in cur:
                    raise ValueError(f"case {cur['case_id']} has a second {key!r} line")
                cur[key] = parse(values[0])
            elif line.startswith("note "):
                cur["note"] = line[5:]
            elif line.startswith(("nonreduced ", "twisting ", "rubbish ")):
                role, name, *rest = line.split()
                if line.count(";") != 1:
                    raise ValueError(f"{role} {name} needs one '; labels' part")
                if len(rest) != 5 or rest[0] != "=" or rest[2:4] != [";", "labels"]:
                    raise ValueError(f"expected '{role} NAME = VECTOR ; labels LABELS', "
                                     f"got {line!r}")
                if name in cur["black_labels"]:
                    raise ValueError(f"{role} {name}: name defined twice in case {cur['case_id']}")
                cur[role][name] = _parse_vector(rest[1])
                cur["black_labels"][name] = _parse_vector(rest[4])
            elif line.startswith("arrow "):
                if len(words := line.split()) != 4:
                    raise ValueError(f"expected 'arrow TAIL TWISTING HEAD', got {line!r}")
                cur["arrows"].append(tuple(words[1:]))
            else:
                raise ValueError(f"unrecognised line: {raw!r}")
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

    Checked, per the acceptance contract, against the weight diagram that
    `build_weight_diagram` makes for the printed twisting weights: every
    named vector is a positive weight with the stated reduced/non-reduced
    status, the capitals and small letters are exactly the diagram's
    non-reduced and rubbish weights, and its arrow set equals the printed
    one.  The printed Dynkin labels at black vertices are verified as well.
    """
    report = Report()
    g = compute_grading(diagram(case.group, case.black))
    named = case.all_named()

    for name, vec in named.items():
        if not g.is_positive_weight(vec):
            report.add(f"weight {name}", False, f"{vec} is not a positive weight")
            return report
    report.add("all named vectors are positive weights", True)
    wd = build_weight_diagram(g, list(case.twisting.values()))

    computed_nonred = set(wd.nonreduced)
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

    computed_rubbish = set(wd.rubbish)
    report.add(
        "rubbish weights match",
        computed_rubbish == set(case.rubbish.values()),
        f"printed {sorted(case.rubbish.values())} computed {sorted(computed_rubbish)}",
    )

    # arrows, compared as sets of name triples: a vector takes its first
    # name in its role (a twisting weight may share a capital's vector)
    vertices = {**case.nonreduced, **case.rubbish}
    vertex_name = {vec: name for name, vec in reversed(vertices.items())}
    twisting_name = {vec: name for name, vec in reversed(case.twisting.items())}
    computed_arrows: set[tuple[str, str, str]] = set()
    unnamed: list[str] = []
    for tail, mu, head in wd.arrows:
        if tail in vertex_name and head in vertex_name:
            computed_arrows.add((vertex_name[tail], twisting_name[mu], vertex_name[head]))
        else:
            unnamed.append(f"{vertex_name.get(tail, tail)}-{twisting_name[mu]}->{head}")
    report.add("arrow heads all land on vertices", not unnamed, "; ".join(unnamed))
    printed_arrows = set(case.arrows)
    report.add(
        "arrow set matches",
        computed_arrows == printed_arrows,
        f"missing {sorted(printed_arrows - computed_arrows)} "
        f"extra {sorted(computed_arrows - printed_arrows)}",
    )

    label_bad = []
    coroots = g.rs.cartan[[b - 1 for b in sorted(case.black)]]  # <., alpha_b^vee> per black b
    for name, vec in named.items():
        tops = g.highest_root_of(vec)
        if len(tops) != 1:
            label_bad.append(f"{name}: {len(tops)} highest roots")
            continue
        labels = tuple((coroots @ tops[0]).tolist())
        if labels != case.black_labels[name]:
            label_bad.append(f"{name}: computed {labels} printed {case.black_labels[name]}")
    report.add("black-vertex labels match", not label_bad, "; ".join(label_bad))
    return report


def verify_all_cases() -> dict[str, Report]:
    return {cid: verify_case(spec) for cid, spec in sorted(load_cases().items())}
