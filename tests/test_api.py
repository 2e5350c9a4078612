"""The public names of the package."""

import qcollide


def test_every_public_name_resolves_and_the_list_is_sorted():
    assert qcollide.__all__ == sorted(qcollide.__all__)
    assert [name for name in qcollide.__all__ if not hasattr(qcollide, name)] == []
