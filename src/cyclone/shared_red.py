"""lndfs: the allred engine on red flags shared by every worker.

Each worker runs the allred search with its own stack colors, under its
own successor order (worker 0 canonical, the rest seeded permutations),
and prunes any state the swarm has already proved safe.  What this adds
to the engine is only the sharing: the store's RED plane blocks every
worker's blue search, and the engine's accept counters keep a
half-finished sibling red search from being pruned.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton
from .colors import ColorStore
from .results import Verdict
from .search import nested_search, race, worker_keys


def lndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Shared-red multi-core detector.

    Worker 0 explores in canonical order, the rest under seeded
    permutations.  Pass a pre-built ColorStore to inspect colors after
    the run.  A run still going at deadline raises WatchdogTimeout.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    visited = bytearray(aut.num_states) if heuristic else None

    def body(w, ws, racing):
        keys = (None, None) if w == 0 else worker_keys(w, seed)
        return nested_search(aut, ws, store=store, allred=True, keys=keys, visited=visited, racing=racing)

    return race(n_workers, body, deadline)
