"""Embarrassingly parallel nested search: isolated workers, permuted orders.

Every worker runs the full sequential algorithm on its own private
arrays; they share nothing but the termination flag, the first-winner
slot, and (optionally) the discovery bitset behind the fresh-successor
bias.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton
from .colors import TerminationFlag
from .results import Verdict
from .search import nested_search, race, worker_keys


def swarm_ndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    term: TerminationFlag | None = None,
) -> Verdict:
    """Swarmed nested search with seeded per-worker successor permutations.

    With one worker and no heuristic this is exactly the sequential
    detector under the same seed.  term may inject an external
    termination flag (the bench watchdog uses this).
    """
    term = term or TerminationFlag()
    visited = bytearray(aut.num_states) if heuristic else None

    def body(w, ws):
        return nested_search(
            aut, ws, term, keys=worker_keys(w, seed), visited=visited, racing=n_workers > 1
        )

    return race(n_workers, term, body)
