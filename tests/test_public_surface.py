"""Every public function, class and method of src/parabolics is named by the
program itself: somewhere in src/ outside its own definition, in
perfbench/*.py or in the package's __all__; cli.main is the console entry
point.  A method or property counts only as an attribute (`.name`), not as
a local variable of the same name, and in src/ only where its receiver may
be of the method's class: a look-up on `self` in another class's method,
or on a parameter annotated with another class, names that class's method.
A public name that only tests call fails here."""

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


def _names(node) -> Counter:
    """Every identifier that node reads, imports or looks up as an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def _lookups(node, owners: dict, cls: str | None = None):
    """(attribute node, class of its receiver or None) for every attribute
    look-up under node.  owners maps a variable to the class it is known to
    hold: the first parameter of a method holds its class, a parameter
    annotated with a plain name that name, and any other parameter hides
    an outer variable of its name."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        owners = {**owners, **{a.arg: getattr(a.annotation, "id", None) for a in params}}
        if cls is not None and params:
            owners[params[0].arg] = cls
    elif isinstance(node, ast.Attribute):
        yield node, owners.get(node.value.id) if isinstance(node.value, ast.Name) else None
    for child in ast.iter_child_nodes(node):
        yield from _lookups(child, owners, node.name if isinstance(node, ast.ClassDef) else None)


def _unused_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    lookups = [found for tree in trees.values() for found in _lookups(tree, {})]
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _public_definitions(tree):
            if (module, qualified) in ENTRY_POINTS or name in parabolics.__all__:
                continue
            method = "." in qualified
            if method:  # looked up outside its definition, maybe on its class
                cls, inside = qualified.split(".")[0], set(map(id, ast.walk(node)))
                if any(a.attr == name and owner in (None, cls) and id(a) not in inside
                       for a, owner in lookups):
                    continue
            elif in_src[name] > _names(node)[name]:  # named outside its definition
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
