"""The hand-kept export list of the package matches its public names."""

import types

import coarsepd


def test_every_exported_name_resolves():
    assert len(set(coarsepd.__all__)) == len(coarsepd.__all__)
    assert [name for name in coarsepd.__all__ if not hasattr(coarsepd, name)] == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(coarsepd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(coarsepd.__all__)) == []
