"""Multi-core accepting-cycle detection for Büchi automata.

The public names load lazily (PEP 562): `import cyclone` imports no
submodule, and the first access to a name in __all__ imports the one
module that defines it.  So `cyclone check --alg ndfs` never compiles
the other detectors.  A submodule's name reaches the module itself, as
an attribute of the package, whether it was imported before or not.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "automaton": (
        "BuchiAutomaton", "DanglingStateId", "DuplicateEdge", "MalformedHeader", "ZeroCycle",
        "gen_lasso", "gen_needle", "gen_random", "parse_automaton", "permute", "state_hash", "worker_keys",
    ),
    "bench": (
        "ALGORITHM_TABLE", "CSV_HEADER", "BenchRecord", "InputNotFound", "InvalidConfig", "RunConfig",
        "SweepRow", "VerdictCorrupt", "execute", "resolve_input", "sweep", "write_csv", "write_sweep_csv",
    ),
    "colors": ("ColorStore", "UnderflowFault"),
    "nmc": ("nmc_ndfs",),
    "optimistic": ("endfs",),
    "oracle": (
        "has_accepting_cycle", "sccs_from_init", "validate_lasso", "witness_lasso",
    ),
    "owcty_map": ("MapResult", "map_pass", "owcty"),
    "results": ("Lasso", "Verdict", "WatchdogTimeout", "WorkerStats", "WorkStats"),
    "search": ("ndfs",),
    "shared_red": ("lndfs",),
    "stats": ("EmpiricalDistribution", "EmptyDistribution", "ZeroTime"),
    "swarm": ("swarm_ndfs",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
