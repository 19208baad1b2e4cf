"""The multi-core detectors: what each adds to the one nested-search engine.

Worker 0 of lndfs, endfs and nmc_ndfs explores in canonical order, the
rest under seeded permutations.  Pass a pre-built ColorStore to the
shared-color detectors to inspect colors after the run.  A run still
going at deadline raises WatchdogTimeout (see race).
"""

from __future__ import annotations

from .automaton import BuchiAutomaton, worker_keys
from .colors import BLUE, RED, SAFE, ColorStore
from .results import Verdict, WorkerStats
from .search import nested_search, race


def _keys(w: int, seed: int) -> tuple[int, int] | None:
    return None if w == 0 else worker_keys(w, seed)


def _counting_dangerous(v: Verdict) -> Verdict:
    """v with dangerous_count (states ever marked dangerous) in its extras."""
    v.stats.extras["dangerous_count"] = sum(s.dangerous_marks for s in v.stats.workers)
    return v


def swarm_ndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    deadline: float | None = None,
) -> Verdict:
    """Embarrassingly parallel nested search: isolated workers, permuted orders.

    Every worker runs the full sequential algorithm on its own private
    arrays under a seeded permutation; they share nothing but
    (optionally) the discovery bitset behind the fresh-successor bias.
    With one worker and no heuristic this is exactly the sequential
    detector under the same seed.
    """
    visited = bytearray(aut.num_states) if heuristic else None

    def body(w, ws, racing):
        return nested_search(aut, ws, keys=worker_keys(w, seed), visited=visited, racing=racing)

    return race(n_workers, body, deadline)


def lndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Shared-red multi-core detector: the allred engine on red flags shared by every worker.

    Each worker runs the allred search with its own stack colors, under
    its own successor order, and prunes any state the swarm has already
    proved safe.  What this adds to the engine is only the sharing: the
    store's RED plane blocks every worker's blue search, and the
    engine's accept counters keep a half-finished sibling red search
    from being pruned.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    red = store.plane(RED)
    visited = bytearray(aut.num_states) if heuristic else None

    def body(w, ws, racing):
        return nested_search(aut, ws, store=store, block=red, allred=True, keys=_keys(w, seed),
                             visited=visited, racing=racing)

    return race(n_workers, body, deadline)


def endfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Shared-blue/shared-red optimistic detector with sequential repair.

    Workers share the blue (done) and red (safe) flags and keep only the
    stack colors to themselves, so the swarm traverses the state space
    roughly once instead of once per worker.  What this adds to the
    engine is the repair: repair(stem) re-checks the dangerous root at
    the end of stem, the blue stack that reached it, by a call of the
    engine given that stem.  It is a sequential nested search rooted at
    stem[-1], over private arrays that persist across one worker's
    repairs, which caps any worker's total work at four visits per
    state.  The engine books a repair's expansions as the worker's
    repair_expansions, also when the run closes it mid-repair.

    A single worker degenerates to the sequential algorithm: post order
    then guarantees every accepting state a red search meets is already
    red, so nothing is ever marked dangerous and the repair stage never
    runs.  Verdict extras carry dangerous_count.
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

        return nested_search(aut, ws, store=store, block=blue, keys=_keys(w, seed), racing=racing, repair=repair)

    return _counting_dangerous(race(n_workers, body, deadline))


class _RepairTask:
    """One dangerous root under repair.  Closed once the root turns safe."""

    __slots__ = ("root", "stem", "joiners")

    def __init__(self, stem: tuple[int, ...]):
        self.root = stem[-1]
        self.stem = stem
        self.joiners = 0


def nmc_ndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    store: ColorStore | None = None,
    deadline: float | None = None,
) -> Verdict:
    """Optimistic detector whose repairs are shared allred passes with helpers.

    The main pass is the optimistic engine of endfs.  What this adds is
    how a dangerous root is repaired: repair(stem), handed the blue stack
    that ends at the root, opens a shared repair task, and the finder
    roots an allred pass at it; any worker arriving at the same root
    merges in as a helper, and workers whose own pass already completed
    pick open tasks off the board until every pass and every repair is
    done.  Each participation is an engine call given the task's stem,
    as a repair of endfs is.  Each worker is a generator, as the engine
    is: a repair runs under the engine's yield from, and a worker whose
    pass is done but finds nothing open yields its turn to the workers
    that may still open a task.  Workers take turns in one thread, so
    the board needs no lock.

    Repairs block on, and publish, their own SAFE flag under the counter
    protocol of lndfs.  They cannot use RED: the optimistic pass promotes
    a dangerous root to red before it is repaired, and a repair pruned at
    red states would clear it without looking.  SAFE is shared by all
    repairs, so concurrent repairs prune each other and re-joining a
    finished task costs nothing.

    Each worker still visits each state at most four times.  Its main
    pass enters a state at most once in blue and once in red.  A
    completed repair leaves every state it entered SAFE: its root is
    accepting, so either the root's red search covered everything the
    repair entered, or every state it entered came back safe already.
    One worker's repairs run one after another and each blocks on SAFE,
    so together they too enter a state at most once in blue and once in
    red.  Verdict extras carry dangerous_count.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    blue, safe = store.plane(BLUE), store.plane(SAFE)
    tasks: dict[int, _RepairTask] = {}
    mains_done = 0

    def participate(task: _RepairTask, ws: WorkerStats, racing: bool):
        task.joiners += 1
        return nested_search(
            aut, ws, store=store, block=safe, allred=True,
            keys=worker_keys(task.joiners - 1, seed ^ (task.root * 0x1000193)),
            stem=task.stem, racing=racing,
        )

    def body(w, ws, racing):
        nonlocal mains_done

        def repair(stem: tuple[int, ...]):
            task = tasks.get(stem[-1])
            if task is None:
                task = tasks[stem[-1]] = _RepairTask(stem)
            else:
                ws.helper_joins += 1
            return participate(task, ws, racing)

        res = yield from nested_search(aut, ws, store=store, block=blue, keys=_keys(w, seed), racing=racing,
                                       repair=repair)
        if res is not None:
            return res
        mains_done += 1
        # own pass done: help with whatever repairs are still open
        while True:
            task = next((t for t in tasks.values() if not safe[t.root]), None)
            if task is not None:
                ws.helper_joins += 1
                res = yield from participate(task, ws, racing)
                if res is not None:
                    return res
                # a completed participation leaves its root SAFE; were it
                # not, this loop would re-join the task without yielding
                assert safe[task.root], f"repair of {task.root} completed but left it unsafe"
            elif mains_done == n_workers:
                return None
            else:
                yield  # the other workers' turn: they may still open repairs

    return _counting_dangerous(race(n_workers, body, deadline))
