"""endfs: the optimistic engine on shared blue and red, with sequential repairs.

Workers share the blue (done) and red (safe) flags and keep only the
stack colors to themselves, so the swarm traverses the state space
roughly once instead of once per worker.  What this adds to the engine
is the repair: a dangerous root is re-checked by a rooted call of the
engine, a sequential nested search over private arrays that persist
across one worker's repairs, which caps any worker's total work at four
visits per state.  The engine books a rooted call's expansions as the
worker's repair_expansions, also when the run closes it mid-repair.

A single worker degenerates to the sequential algorithm: post order then
guarantees every accepting state a red search meets is already red, so
nothing is ever marked dangerous and the repair stage never runs.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton
from .colors import BLUE, ColorStore
from .results import Verdict
from .search import nested_search, race, worker_keys


def endfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Shared-blue/shared-red optimistic detector with sequential repair.

    Verdict extras carry dangerous_count (states ever marked dangerous)
    and repair_states (distinct states the repair stage ever entered).
    A run still going at deadline raises WatchdogTimeout.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    n = aut.num_states
    repair_seen = bytearray(n)

    def body(w, ws, racing):
        # repair arrays persist across this worker's repairs: the whole
        # repair stage costs it at most two visits per state
        repair_colors, repair_flags = bytearray(n), bytearray(n)
        repair_keys = worker_keys(w, seed ^ 0x52455041)  # a separate permutation family

        def repair(root: int, stem: tuple[int, ...]):
            return nested_search(
                aut, ws, flags=repair_flags, root=root, colors=repair_colors,
                keys=repair_keys, seen=repair_seen, stem=stem, racing=racing,
            )

        keys = (None, None) if w == 0 else worker_keys(w, seed)
        return nested_search(aut, ws, store=store, block=BLUE, keys=keys, racing=racing, repair=repair)

    v = race(n_workers, body, deadline)
    v.stats.extras["dangerous_count"] = sum(s.dangerous_marks for s in v.stats.workers)
    v.stats.extras["repair_states"] = sum(repair_seen)
    return v
