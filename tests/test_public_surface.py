"""Every public function, class and method of src/parabolics is named by the
program itself: somewhere in src/ outside its own definition, in
perfbench/*.py or in the package's __all__; cli.main is the console entry
point.  A method or property counts only as an attribute (`.name`), not as
a local variable of the same name.  A public name that only tests call
fails here."""

import ast
import re
from collections import Counter
from pathlib import Path

import parabolics

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "parabolics").glob("*.py"))
ENTRY_POINTS = {("cli", "main")}


def _public_definitions(tree):
    """(qualified name, bare name, node) of each public module-level
    function and class and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _names(node, attributes_only: bool = False) -> Counter:
    """Every identifier that node reads, imports or looks up as an attribute;
    with attributes_only, the attribute look-ups alone."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def _unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    in_src = {method: sum((_names(tree, method) for tree in trees.values()), Counter())
              for method in (False, True)}
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _public_definitions(tree):
            if (module, qualified) in ENTRY_POINTS or name in parabolics.__all__:
                continue
            method = "." in qualified
            if in_src[method][name] > _names(node, method)[name]:  # named outside its definition
                continue
            start = r"\." if method else r"\b"
            if re.search(rf"{start}{re.escape(name)}\b", perfbench):
                continue
            unused.append(f"{module}.{qualified}")
    return unused


def test_sources_were_found():
    assert {"cli", "mpchar", "spinor", "rootsys"} <= {p.stem for p in SOURCES}


def test_every_public_name_has_a_caller_outside_the_tests():
    assert _unused_public_names() == []
