"""nmc: endfs with swarmed repairs instead of sequential ones.

The main pass is the optimistic engine of endfs.  What this adds is how
a dangerous root is repaired: repair(stem), handed the blue stack that
ends at the root, opens a shared repair task, and the finder roots an
allred pass at it; any worker arriving at the same root merges in as a
helper, and workers whose own pass already completed pick open tasks off
the board until every pass and every repair is done.  Each participation
is a call of the engine given the task's stem, which roots it at the
stem's end and books its expansions on the worker's own counters as
repair_expansions.  Each worker is a generator, as the engine is: a
repair runs under the engine's yield from, and a worker whose pass is
done but finds nothing open yields its turn to the workers that may
still open a task.
Workers take turns in one thread, so the board needs no lock.

Repairs block on, and publish, their own SAFE flag under the counter
protocol of lndfs.  They cannot use RED: the optimistic pass promotes a
dangerous root to red before it is repaired, and a repair pruned at red
states would clear it without looking.  SAFE is shared by all repairs,
so concurrent repairs prune each other and re-joining a finished task
costs nothing.

Each worker still visits each state at most four times.  Its main pass
enters a state at most once in blue and once in red.  A completed repair
leaves every state it entered SAFE: its root is accepting, so either the
root's red search covered everything the repair entered, or every state
it entered came back safe already.  One worker's repairs run one after
another and each blocks on SAFE, so together they too enter a state at
most once in blue and once in red.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton, worker_keys
from .colors import BLUE, SAFE, ColorStore
from .results import Verdict, WorkerStats
from .search import nested_search, race


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

    A run still going at deadline raises WatchdogTimeout.
    """
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    blue, safe = store.plane(BLUE), store.plane(SAFE)
    repair_seen = bytearray(aut.num_states)
    tasks: dict[int, _RepairTask] = {}
    mains_done = 0

    def participate(task: _RepairTask, ws: WorkerStats, racing: bool):
        task.joiners += 1
        return nested_search(
            aut, ws, store=store, block=safe, allred=True,
            keys=worker_keys(task.joiners - 1, seed ^ (task.root * 0x1000193)),
            seen=repair_seen, stem=task.stem, racing=racing,
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

        keys = None if w == 0 else worker_keys(w, seed)
        res = yield from nested_search(aut, ws, store=store, block=blue, keys=keys, racing=racing, repair=repair)
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

    v = race(n_workers, body, deadline)
    v.stats.extras["dangerous_count"] = sum(s.dangerous_marks for s in v.stats.workers)
    v.stats.extras["repair_states"] = sum(repair_seen)
    return v
