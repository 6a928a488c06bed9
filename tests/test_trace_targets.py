"""Every function the benchmark tracer wraps still exists with the kind the
tracer expects, so a rename or a change of kind fails here and not only in a
traced benchmark run (`perfbench/run.py --trace 1`)."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spans import PACKAGE, TARGETS  # noqa: E402

# Kind of each class attribute the tracer wraps; plain names are module functions.
CLASS_KINDS = {
    "ExtendedStackyFan.l_basis": "property",
    "RationalCone.extremal_rays": "method",
    "RationalCone.contains": "method",
    "GradedQuotientRing.nf": "method",
    "GradedQuotientRing.class_of": "method",
    "GradedQuotientRing.mul": "method",
    "LogDiffOp.__mul__": "method",
}

NAMES = [(module, name) for module, names in TARGETS.items() for name in names]


def _kind(value) -> str:
    if isinstance(value, property):
        return "property"
    if inspect.isfunction(value):
        return "function"
    return type(value).__name__


def test_every_class_target_has_a_recorded_kind():
    assert {name for _module, name in NAMES if "." in name} == set(CLASS_KINDS)


@pytest.mark.parametrize("module_name, name", NAMES)
def test_trace_target_resolves_with_its_kind(module_name, name):
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." not in name:
        value = vars(module).get(name)
        assert _kind(value) == "function"
        assert value.__module__ == module.__name__
        return
    cls_name, attr = name.split(".")
    cls = vars(module).get(cls_name)
    assert inspect.isclass(cls) and cls.__module__ == module.__name__
    kind = _kind(vars(cls).get(attr))
    assert {"function": "method"}.get(kind, kind) == CLASS_KINDS[name]
