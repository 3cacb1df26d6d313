"""Spans and counts at the boundaries of the parabolics modules.

The tracer wraps public names in the package's module namespaces (and one
private search helper, the only place deformation candidates are visible).
Every module that imported a wrapped object by name gets the wrapper too.
A span is (name, start, end, parent, op): `op` is the operation the
benchmark was timing when the span opened, so the spans of one report,
task or pass share it.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, span name).  "Class.attr" names a method or property.
TARGETS = (
    ("rootsys", "build_root_system", "rootsys.build"),
    ("rootsys", "RootSystem.root_sum_is_root", "rootsys.sum_table"),
    ("grading", "compute_grading", "grading.compute"),
    ("grading", "Grading.is_irreducible_component", "grading.irreducible"),
    ("walkdiag", "verify_case", "walkdiag.verify_case"),
    ("classify", "check_table", "classify.check_table"),
    ("classify", "load_table", "classify.load_table"),
    ("cxlinalg", "mp_inverse", "cxlinalg.mp_inverse"),
    ("cxlinalg", "restriction_invariants", "cxlinalg.restriction_invariants"),
    ("cxlinalg", "span_with_invariants", "cxlinalg.span_with_invariants"),
    ("mpchar", "lemma_B_from_A", "mpchar.lemma"),
    ("mpchar", "gl_hermitian_characteristic", "mpchar.gl_char"),
    ("spinor", "SpinModule.rho", "spinor.rho"),
    ("spinor", "SpinModule.form_gram", "spinor.form_gram"),
    ("ampleness", "random_task", "ampleness.random_task"),
    ("ampleness", "random_task_7a", "ampleness.random_task"),
    ("ampleness", "deform", "ampleness.search"),
    ("cli", "Report.emit", "cli.emit"),
)

# Per-layer metrics: name -> (unit, how it is computed from the spans).
# "total": summed duration of the outermost spans of that name;
# "self": summed duration minus the time covered by direct child spans;
# "count": number of spans.  Every value is divided by the number of
# operations the run timed, so it does not depend on the run length.
LAYER_METRICS = {
    "rootsys.build_s": ("s/op", "total", "rootsys.build"),
    "rootsys.sum_table_s": ("s/op", "total", "rootsys.sum_table"),
    "grading.gradings": ("count/op", "count", "grading.compute"),
    "grading.compute_s": ("s/op", "total", "grading.compute"),
    "grading.irreducible_s": ("s/op", "self", "grading.irreducible"),
    "walkdiag.verify_case_s": ("s/op", "total", "walkdiag.verify_case"),
    "classify.check_table_s": ("s/op", "total", "classify.check_table"),
    "classify.table_loads": ("count/op", "count", "classify.load_table"),
    "cxlinalg.mp_inverse_calls": ("count/op", "count", "cxlinalg.mp_inverse"),
    "cxlinalg.mp_inverse_s": ("s/op", "total", "cxlinalg.mp_inverse"),
    "cxlinalg.restriction_invariants_calls": ("count/op", "count", "cxlinalg.restriction_invariants"),
    "cxlinalg.restriction_invariants_s": ("s/op", "total", "cxlinalg.restriction_invariants"),
    "cxlinalg.span_with_invariants_s": ("s/op", "total", "cxlinalg.span_with_invariants"),
    "mpchar.lemma_s": ("s/op", "total", "mpchar.lemma"),
    "mpchar.gl_char_s": ("s/op", "total", "mpchar.gl_char"),
    "spinor.rho_calls": ("count/op", "count", "spinor.rho"),
    "spinor.rho_s": ("s/op", "total", "spinor.rho"),
    "spinor.form_gram_builds": ("count/op", "count", "spinor.form_gram"),
    "spinor.form_gram_s": ("s/op", "total", "spinor.form_gram"),
    "ampleness.random_task_s": ("s/op", "total", "ampleness.random_task"),
    "ampleness.search_s": ("s/op", "total", "ampleness.search"),
    "cli.emit_s": ("s/op", "total", "cli.emit"),
}
# Search metrics, from the per-search samples rather than from spans.
SEARCH_METRICS = {
    "ampleness.candidates_per_task": "count",
    "ampleness.first_candidate_share": "ratio",
    "ampleness.restarts_mean": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, outermost]
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._tables_seen: set[tuple[str, int]] = set()
        self.candidates: list[int] = []  # witnesses tried, one entry per search
        self.restarts: list[int] = []  # DeformResult.restarts, one entry per search

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, depth == 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[sid][0]] -= 1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def _sum_table_property(self, prop: property) -> property:
        # Only the first access per type builds the table; later ones are
        # cache hits and stay part of their caller's self time.
        def fget(rs):
            key = (rs.kind, rs.rank)
            if key in self._tables_seen:
                return prop.fget(rs)
            self._tables_seen.add(key)
            sid = self._open("rootsys.sum_table")
            try:
                return prop.fget(rs)
            finally:
                self._close(sid)

        return property(fget, doc=prop.__doc__)

    def _search_wrapper(self, run_search):
        def traced_search(variant, deterministic, random_gen, verify, max_restarts):
            tried = 0

            def counted(witness):
                nonlocal tried
                tried += 1
                return verify(witness)

            try:
                return run_search(variant, deterministic, random_gen, counted, max_restarts)
            finally:
                self.candidates.append(tried)

        return traced_search

    def _deform_wrapper(self, deform):
        traced = self.wrap("ampleness.search", deform)

        def deform_and_count(task):
            res = traced(task)
            self.restarts.append(res.restarts)
            return res

        return deform_and_count

    def install(self) -> None:
        """Wrap every target in every loaded parabolics module namespace.
        A target the program no longer has is skipped; its metrics read 0."""
        importlib.import_module("parabolics.cli")  # loads every module
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "parabolics" or n.startswith("parabolics."))]
        for modname, attr, name in TARGETS:
            mod = sys.modules[f"parabolics.{modname}"]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(member) if cls is not None else None
                if orig is None:
                    continue
                if isinstance(orig, property):
                    new = (self._sum_table_property(orig) if name == "rootsys.sum_table"
                           else property(self.wrap(name, orig.fget), doc=orig.__doc__))
                else:
                    new = self.wrap(name, orig)
                setattr(cls, member, new)
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            new = self._deform_wrapper(orig) if name == "ampleness.search" else self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
        ampl = sys.modules["parabolics.ampleness"]
        if hasattr(ampl, "_run_search"):
            ampl._run_search = self._search_wrapper(ampl._run_search)

    def export(self) -> dict:
        return {"spans": self.spans, "candidates": self.candidates, "restarts": self.restarts}


def layer_metrics(exports: list[dict], ops: int, scale: float) -> dict:
    """Per-layer metrics, per timed operation, from one or more exports.
    Times are multiplied by `scale`, the run's factor to reference speed."""
    totals = {name: 0.0 for name in {src for _, _, src in LAYER_METRICS.values()}}
    selfs = dict(totals)
    counts = dict.fromkeys(totals, 0)
    candidates: list[int] = []
    restarts: list[int] = []
    for ex in exports:
        spans = ex["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op, _outer in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, _parent, _op, outer) in enumerate(spans):
            if name not in totals:
                continue
            counts[name] += 1
            if outer:
                totals[name] += end - start
            selfs[name] += end - start - child_time[sid]
        candidates += ex["candidates"]
        restarts += ex["restarts"]
    ops = max(ops, 1)
    out = {}
    for metric, (unit, how, src) in LAYER_METRICS.items():
        value = {"total": totals, "self": selfs, "count": counts}[how][src] / ops
        if how != "count":
            value *= scale
        out[metric] = {"value": value, "unit": unit}
    n = len(candidates)
    search = {
        "ampleness.candidates_per_task": sum(candidates) / n if n else 0.0,
        "ampleness.first_candidate_share": sum(c == 1 for c in candidates) / n if n else 0.0,
        "ampleness.restarts_mean": sum(restarts) / len(restarts) if restarts else 0.0,
    }
    out.update({k: {"value": v, "unit": SEARCH_METRICS[k]} for k, v in search.items()})
    return out
