import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

CLASS_TARGETS = [(module, attr) for module, attr, _ in tracer.TARGETS if "." in attr]


@pytest.mark.parametrize("module, attr", CLASS_TARGETS, ids=[a for _, a in CLASS_TARGETS])
def test_class_targets_keep_the_kind_the_tracer_wraps(module, attr):
    # The tracer wraps a property's getter and any other member as a method:
    # a cached_property would be called as a method and hand out a bound one.
    cls_name, member = attr.split(".")
    cls = getattr(importlib.import_module(f"parabolics.{module}"), cls_name)
    found = vars(cls)[member]
    assert isinstance(found, property) or inspect.isfunction(found), type(found)


def test_there_are_class_targets():
    assert len(CLASS_TARGETS) == 5
