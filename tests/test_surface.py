"""The package's public surface is the union of its submodules' ``__all__``."""

import importlib
import pkgutil

import infobridge


def test_every_public_name_is_reexported():
    # a submodule's public name that the package leaves out fails here
    public = {info.name: getattr(importlib.import_module(f"infobridge.{info.name}"), "__all__", [])
              for info in pkgutil.iter_modules(infobridge.__path__)}
    names = [name for names in public.values() for name in names]
    assert sorted(infobridge.__all__) == sorted(names)
    assert len(set(names)) == len(names)  # no name is public in two submodules
    for module, names in public.items():
        for name in names:
            assert getattr(infobridge, name) is getattr(getattr(infobridge, module), name), name
