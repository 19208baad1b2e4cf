"""The package surface: no public name shadows a submodule, every export resolves,
and only the shared color store touches threads."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import cyclone


def test_every_submodule_is_reachable_as_a_package_attribute():
    for info in pkgutil.iter_modules(cyclone.__path__):
        module = importlib.import_module(f"cyclone.{info.name}")
        assert isinstance(getattr(cyclone, info.name), types.ModuleType), info.name
        assert getattr(cyclone, info.name) is module


def test_every_exported_name_resolves():
    for name in cyclone.__all__:
        assert hasattr(cyclone, name), name


def test_only_colors_imports_threading():
    # workers take turns in one thread and a run stops by closing them;
    # colors.py keeps its locks for its thread-safe public contract
    importers = []
    for path in sorted(Path(cyclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in ("threading", "_thread") for n in names):
                importers.append(path.name)
    assert importers == ["colors.py"]
