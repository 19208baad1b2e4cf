"""The package surface: no public name shadows a submodule, every export resolves,
the names load lazily and dir lists them unloaded, a check run loads neither
dataclasses nor csv, the README's library example runs, no module touches
threads or dataclasses, only the package loads modules by name, and only the
drivers build WorkerStats."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
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


_LAZY_PROBE = """
import json, sys
import cyclone.cli
loaded = sorted(sys.modules)
import cyclone
multicore = cyclone.multicore.__name__  # a submodule not imported yet
unknown = None
try:
    cyclone.no_such_name
except AttributeError as e:
    unknown = str(e)
names = {}
exec("from cyclone import *", names)
print(json.dumps({"loaded": loaded, "multicore": multicore, "unknown": unknown,
                  "bound": sorted(set(cyclone.__all__) & names.keys()), "all": sorted(cyclone.__all__)}))
"""


def test_the_cli_loads_only_what_check_runs():
    # `cyclone check --alg ndfs` must not compile the other detectors, nor
    # cyclone.stats and statistics (and with it fractions and decimal)
    src = Path(cyclone.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(proc.stdout)
    unused = {"statistics", "cyclone.stats", "cyclone.owcty_map", "cyclone.multicore"}
    assert unused.isdisjoint(out["loaded"])
    assert out["multicore"] == "cyclone.multicore"
    assert out["unknown"] == "module 'cyclone' has no attribute 'no_such_name'"
    assert out["bound"] == out["all"]


_DIR_PROBE = """
import json, sys
import cyclone
loaded = sorted(set(cyclone.__all__) & vars(cyclone).keys())
print(json.dumps({"dir": dir(cyclone), "loaded": loaded,
                  "submodules": sorted(m for m in sys.modules if m.startswith("cyclone."))}))
"""


def test_dir_lists_every_export_before_any_is_loaded():
    src = Path(cyclone.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _DIR_PROBE], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(proc.stdout)
    assert out["loaded"] == [] and out["submodules"] == []
    assert set(cyclone.__all__) <= set(out["dir"])
    assert set(cyclone.__all__) <= set(dir(cyclone))


# modules that a `check` run must not load: dataclasses and what it
# pulls in, and csv, which only bench and dist use
_CHECK_UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}

_CHECK_PROBE = """
import json, sys
before = set(sys.modules)  # whatever site loaded is not the run's doing
from cyclone.cli import main
code = main(["check", sys.argv[1], "--alg", "ndfs", "--oracle"])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


def test_a_check_run_loads_no_dataclasses_and_no_csv(tmp_path):
    path = tmp_path / "lasso.aut"
    path.write_text(cyclone.gen_lasso(2, 3, True).to_text())
    src = Path(cyclone.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _CHECK_PROBE, str(path)], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True)
    *printed, last = proc.stdout.splitlines()
    out = json.loads(last)
    assert out["code"] == 0 and printed[0] == "CYCLE"
    assert "cyclone.search" in out["added"]  # the detector did run in this child
    assert _CHECK_UNUSED.isdisjoint(out["added"]), _CHECK_UNUSED & set(out["added"])


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out


def _importers(*modules: str) -> list[str]:
    """The package's files that import any of modules or their submodules."""
    importers = []
    for path in sorted(Path(cyclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] in modules for n in names):
                importers.append(path.name)
    return importers


def test_no_module_imports_threading():
    # workers take turns in one thread and a run stops by closing them, so
    # the shared color store is plain data and nothing takes a lock
    assert _importers("threading", "_thread") == []


def test_no_module_imports_dataclasses():
    # dataclasses would load inspect, ast, dis and tokenize into every check
    # child; the records are plain classes with __slots__
    assert _importers("dataclasses") == []


def test_only_the_package_imports_importlib():
    # one lazy loader: every other module reaches a detector through the
    # package's exports instead of importing it by name itself
    assert _importers("importlib") == ["__init__.py"]


def test_only_the_drivers_build_worker_stats():
    # race books each worker's counters in one WorkerStats, and a repair is
    # a rooted engine call that books into its caller's; owcty has its own
    builders = set()
    for path in sorted(Path(cyclone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "WorkerStats":
                builders.add(path.name)
    assert builders == {"search.py", "owcty_map.py"}
