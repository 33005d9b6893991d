"""The package's export list."""

import types

import fermitree


def test_every_exported_name_resolves():
    for name in fermitree.__all__:
        assert getattr(fermitree, name) is not None, name
    assert len(set(fermitree.__all__)) == len(fermitree.__all__)


def test_every_public_package_attribute_is_exported():
    public = {
        name
        for name, value in vars(fermitree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fermitree.__all__)

