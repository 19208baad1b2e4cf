"""The package surface: no public name shadows a submodule, every export resolves."""

import importlib
import pkgutil
import types

import cyclone


def test_every_submodule_is_reachable_as_a_package_attribute():
    for info in pkgutil.iter_modules(cyclone.__path__):
        module = importlib.import_module(f"cyclone.{info.name}")
        assert isinstance(getattr(cyclone, info.name), types.ModuleType), info.name
        assert getattr(cyclone, info.name) is module


def test_every_exported_name_resolves():
    for name in cyclone.__all__:
        assert hasattr(cyclone, name), name
