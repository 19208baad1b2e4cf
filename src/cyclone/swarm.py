"""Embarrassingly parallel nested search: isolated workers, permuted orders.

Every worker runs the full sequential algorithm on its own private
arrays; they share nothing but (optionally) the discovery bitset behind
the fresh-successor bias.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton, worker_keys
from .results import Verdict
from .search import nested_search, race


def swarm_ndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    deadline: float | None = None,
) -> Verdict:
    """Swarmed nested search with seeded per-worker successor permutations.

    With one worker and no heuristic this is exactly the sequential
    detector under the same seed.  A run still going at deadline raises
    WatchdogTimeout (see race).
    """
    visited = bytearray(aut.num_states) if heuristic else None

    def body(w, ws, racing):
        return nested_search(aut, ws, keys=worker_keys(w, seed), visited=visited, racing=racing)

    return race(n_workers, body, deadline)
