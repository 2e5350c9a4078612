"""The public names of the package."""

import inspect

import qcollide


def test_every_public_name_resolves_and_the_list_is_sorted():
    assert qcollide.__all__ == sorted(qcollide.__all__)
    assert [name for name in qcollide.__all__ if not hasattr(qcollide, name)] == []


def test_public_surface_is_pinned():
    # A change to either count must come with a deliberate edit of this test.
    functions = [obj for obj in map(qcollide.__dict__.get, qcollide.__all__) if inspect.isfunction(obj)]
    defaults = sum(
        param.default is not param.empty
        for function in functions
        for param in inspect.signature(function).parameters.values()
    )
    assert (len(qcollide.__all__), defaults) == (35, 10)
