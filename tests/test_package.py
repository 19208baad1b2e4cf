"""The package surface: no public name shadows a submodule, every export resolves,
only the shared color store touches threads, and only the drivers build
WorkerStats."""

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


def test_only_the_drivers_build_worker_stats():
    # race books each worker's counters in one WorkerStats, and a repair is
    # a rooted engine call that books into its caller's; owcty has its own
    builders = set()
    for path in sorted(Path(cyclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "WorkerStats":
                builders.add(path.name)
    assert builders == {"search.py", "owcty_map.py"}
