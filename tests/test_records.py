"""The package's value types stay immutable, and defining them costs a fresh
interpreter no generated code: the records are NamedTuples and the classes
that cache on the instance derive from frozen.Frozen."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from parabolics import cxlinalg as cx
from parabolics import frozen
from parabolics.classify import ScanRecord
from parabolics.grading import compute_grading, diagram
from parabolics.mpchar import BlockNilpotent
from parabolics.rootsys import RootSystem
from parabolics.spinor import spin_module

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_dataclasses():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, parabolics.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


# (factory, a field, a cached_property or None)
IMMUTABLE = {
    "RootSystem": (lambda: RootSystem("B", 3), "kind", "positive_roots"),
    "SpinModule": (lambda: spin_module(3), "m", None),
    "BilinearSpace": (lambda: cx.BilinearSpace("x", 2, np.eye(2, dtype=complex)), "gram", "norm"),
    "ColouredDiagram": (lambda: diagram("E6", [1, 3]), "black", "white"),
    "Grading": (lambda: compute_grading(diagram("E7", [1, 3, 4, 6, 7])), "_order", "_reduced"),
    "BlockNilpotent": (lambda: BlockNilpotent((1, 1), {(1, 2): np.ones((1, 1))}), "dims", None),
    "ScanRecord": (lambda: ScanRecord((1, 3), 2), "nonreduced", None),
}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, field, cached = IMMUTABLE[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    assert getattr(obj, field) is before
    if cached is not None:
        with pytest.raises(AttributeError):
            setattr(obj, cached, None)


def test_repr_shows_the_named_fields():
    assert repr(spin_module(1)) == "SpinModule(m=1, basis=((), (0,)))"


@pytest.mark.parametrize("name", [n for n, (_, _, cached) in IMMUTABLE.items() if cached])
def test_cached_properties_fill_on_first_read(name, monkeypatch):
    make, _, cached = IMMUTABLE[name]
    obj, other = make(), make()
    descriptor = vars(type(obj))[cached]
    assert isinstance(descriptor, frozen.cached_property)
    calls = []
    getter = descriptor.func
    monkeypatch.setattr(descriptor, "func", lambda self: calls.append(self) or getter(self))
    assert cached not in vars(obj)
    first = getattr(obj, cached)
    assert vars(obj)[cached] is first and getattr(obj, cached) is first
    getattr(other, cached)
    getattr(other, cached)
    assert [id(x) for x in calls] == [id(obj), id(other)]  # once per instance
    with pytest.raises(AttributeError):
        setattr(obj, cached, None)
    with pytest.raises(AttributeError):
        delattr(obj, cached)
    assert getattr(obj, cached) is first and len(calls) == 2


def test_no_module_imports_functools_cached_property():
    # Python 3.11's takes a class-wide lock on every first read; the package
    # uses frozen.cached_property instead.
    for path in sorted((SRC / "parabolics").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cached_property" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.Attribute) and node.attr == "cached_property":
                assert not (isinstance(node.value, ast.Name) and node.value.id == "functools"), \
                    path.name
