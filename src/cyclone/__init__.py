"""Multi-core accepting-cycle detection for Büchi automata."""

from .automaton import (
    BuchiAutomaton,
    DanglingStateId,
    DuplicateEdge,
    MalformedHeader,
    OrderKind,
    SuccessorOrder,
    ZeroCycle,
    gen_lasso,
    gen_needle,
    gen_random,
    order_key,
    parse_automaton,
    permute,
    state_hash,
)
from .bench import (
    ALGORITHM_TABLE,
    CSV_HEADER,
    BenchRecord,
    InputNotFound,
    InvalidConfig,
    RunConfig,
    SweepRow,
    VerdictCorrupt,
    WatchdogTimeout,
    execute,
    resolve_input,
    run,
    sweep,
    write_csv,
    write_sweep_csv,
)
from .colors import ColorStore, ReporterSlot, UnderflowFault
from .nmc import nmc_ndfs
from .optimistic import endfs
from .oracle import (
    enumerate_accepting_cycle,
    has_accepting_cycle,
    sccs_from_init,
    validate_lasso,
    witness_lasso,
)
from .owcty_map import MapResult, map_pass, owcty
from .results import Lasso, Verdict, WorkerStats, WorkStats
from .search import ndfs
from .shared_red import lndfs
from .stats import EmpiricalDistribution, EmptyDistribution, ZeroTime
from .swarm import swarm_ndfs

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_TABLE",
    "BenchRecord",
    "BuchiAutomaton",
    "CSV_HEADER",
    "ColorStore",
    "DanglingStateId",
    "DuplicateEdge",
    "EmpiricalDistribution",
    "EmptyDistribution",
    "InputNotFound",
    "InvalidConfig",
    "Lasso",
    "MalformedHeader",
    "MapResult",
    "OrderKind",
    "ReporterSlot",
    "RunConfig",
    "SuccessorOrder",
    "SweepRow",
    "UnderflowFault",
    "Verdict",
    "VerdictCorrupt",
    "WatchdogTimeout",
    "WorkStats",
    "WorkerStats",
    "ZeroCycle",
    "ZeroTime",
    "endfs",
    "enumerate_accepting_cycle",
    "execute",
    "gen_lasso",
    "gen_needle",
    "gen_random",
    "has_accepting_cycle",
    "lndfs",
    "map_pass",
    "ndfs",
    "nmc_ndfs",
    "order_key",
    "owcty",
    "parse_automaton",
    "permute",
    "resolve_input",
    "run",
    "sccs_from_init",
    "state_hash",
    "swarm_ndfs",
    "sweep",
    "validate_lasso",
    "witness_lasso",
    "write_csv",
    "write_sweep_csv",
]
