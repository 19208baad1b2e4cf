"""endfs: the optimistic engine on shared blue and red, with sequential repairs.

Workers share the blue (done) and red (safe) flags and keep only the
stack colors to themselves, so the swarm traverses the state space
roughly once instead of once per worker.  What this adds to the engine
is the repair: repair(stem) re-checks the dangerous root at the end of
stem, the blue stack that reached it, by a call of the engine given that
stem.  It is a sequential nested search rooted at stem[-1], over private
arrays that persist across one worker's repairs, which caps any worker's
total work at four visits per state.  The engine books a repair's
expansions as the worker's repair_expansions, also when the run closes
it mid-repair.

A single worker degenerates to the sequential algorithm: post order then
guarantees every accepting state a red search meets is already red, so
nothing is ever marked dangerous and the repair stage never runs.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton, worker_keys
from .colors import BLUE, ColorStore
from .results import Verdict
from .search import nested_search, race


def endfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Shared-blue/shared-red optimistic detector with sequential repair.

    Verdict extras carry dangerous_count (states ever marked dangerous).
    A run still going at deadline raises WatchdogTimeout.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    n = aut.num_states
    blue = store.plane(BLUE)

    def body(w, ws, racing):
        # repair arrays persist across this worker's repairs: the whole
        # repair stage costs it at most two visits per state
        repair_colors, repair_block = bytearray(n), bytearray(n)
        repair_keys = worker_keys(w, seed ^ 0x52455041)  # a separate permutation family

        def repair(stem: tuple[int, ...]):
            return nested_search(
                aut, ws, block=repair_block, colors=repair_colors,
                keys=repair_keys, stem=stem, racing=racing,
            )

        keys = None if w == 0 else worker_keys(w, seed)
        return nested_search(aut, ws, store=store, block=blue, keys=keys, racing=racing, repair=repair)

    v = race(n_workers, body, deadline)
    v.stats.extras["dangerous_count"] = sum(s.dangerous_marks for s in v.stats.workers)
    return v
