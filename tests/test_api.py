"""The public names of the package."""

import dataclasses
import inspect
import types

import pytest

import qcollide


def test_every_public_name_resolves_and_the_list_is_sorted():
    assert qcollide.__all__ == sorted(qcollide.__all__)
    assert [name for name in qcollide.__all__ if not hasattr(qcollide, name)] == []


def test_public_surface_is_pinned():
    # A change to any count must come with a deliberate edit of this test: the
    # public names, the function parameters with a default, the data fields of
    # the public dataclasses, and the public methods and properties that the
    # public classes define.
    objects = list(map(qcollide.__dict__.get, qcollide.__all__))
    defaults = sum(
        param.default is not param.empty
        for function in filter(inspect.isfunction, objects)
        for param in inspect.signature(function).parameters.values()
    )
    fields = sum(len(dataclasses.fields(obj)) for obj in objects if dataclasses.is_dataclass(obj))
    kinds = (property, types.FunctionType, staticmethod, classmethod)
    methods = sum(
        not name.startswith("_") and isinstance(member, kinds)
        for cls in filter(inspect.isclass, objects)
        for name, member in vars(cls).items()
    )
    assert (len(qcollide.__all__), defaults, fields, methods) == (30, 8, 17, 2)


def test_invariant_violation_error_needs_its_location():
    with pytest.raises(TypeError):
        qcollide.InvariantViolationError("trace drifted")
