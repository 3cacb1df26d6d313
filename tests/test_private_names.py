"""Every private function, class and method of src/parabolics is named by the
program itself: somewhere in src/ outside its own definition, or in
perfbench/tracer.py, which wraps private functions such as
ampleness._run_search by name.  Dunder methods are exempt: Python calls
them.  A private helper whose last caller has gone fails here."""

import ast
import re
from collections import Counter

from test_public_surface import ROOT, SOURCES, _names

TRACER = ROOT / "perfbench" / "tracer.py"


def _private(node) -> bool:
    name = getattr(node, "name", "")
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and name.startswith("_") \
        and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """(qualified name, bare name, node) of each private module-level
    function and class and of each private method of any class."""
    for node in tree.body:
        if _private(node):
            yield node.name, node.name, node
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if _private(sub) and isinstance(sub, ast.FunctionDef):
                yield f"{node.name}.{sub.name}", sub.name, sub


def _unused_private_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    tracer = TRACER.read_text()
    return [f"{module}.{qualified}"
            for module, tree in trees.items()
            for qualified, name, node in _private_definitions(tree)
            if in_src[name] <= _names(node)[name]
            and not re.search(rf"\b{re.escape(name)}\b", tracer)]


def test_private_definitions_are_found():
    found = {f"{module}.{qualified}" for module, tree in
             ((p.stem, ast.parse(p.read_text())) for p in SOURCES)
             for qualified, _, _ in _private_definitions(tree)}
    assert {"ampleness._run_search", "spinor.SpinModule._once"} <= found
    assert not any(name.endswith("__init__") for name in found)


def test_every_private_name_has_a_caller_in_the_program():
    assert _unused_private_names() == []
