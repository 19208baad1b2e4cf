"""Breadth-first comparator: accepting-predecessor propagation plus pruning.

Two sequential phases.  The first propagates the maximal id of any
accepting state with a path to each state (ids are state id plus one, 0
meaning none); an accepting state that receives its own id closes a
cycle, which settles the run immediately.  Maxima can mask smaller ids,
so a quiet pass proves nothing: the second phase then alternately
restricts the candidate set to the forward closure of its accepting
states and strips states with no remaining predecessor, until the set is
stable.  A non-empty fixpoint contains an accepting cycle, an empty one
rules it out.

The candidate set starts as the states reachable from init and stays
closed under successors: a round's closure is closed by construction,
and a successor of a survivor keeps that survivor as a predecessor, so
it is never stripped.  No walk of the fixpoint therefore needs a
restriction to the candidates.  Each round's closure is one
paths.bfs_tree walk from the accepting candidates, whose fresh parent
list tells which candidates it missed.  In-degrees live in a list: they
are counted once, over the first round's closure, and decremented as
predecessors leave, whether a later closure missed them or they were
stripped.

The initial closure is one paths.bfs_tree walk from init, which also
records each reachable state's breadth-first parent.  Every lasso's stem
is read off that tree with paths.tree_path: the shortest path from init,
the one bfs_path(aut, aut.init, target) returns, so no stem costs a
second walk of the reachable graph.  A lasso's cycle comes from
cycle_through, which runs only once a cycle is known to exist.

The expansion count is the work of both phases: each state the initial
closure reaches, each queue pop of the propagation, and each state kept
or stripped in a fixpoint round.  The lasso's cycle walks stay
uncounted.

A deadline, when given, is read every 1,024 pops of the propagation,
before each phase of a fixpoint round, and before each accepting state
the lasso search tries, so between two reads the run walks the
reachable graph at most once per successor of one state; a run past it
raises WatchdogTimeout.  The lasso search needs its read: it tries the
accepting survivors in id order, and survivors that sit on no cycle,
such as a dead-end chain behind the cycle, each cost a full walk.
"""

from __future__ import annotations

from time import perf_counter

from .automaton import BuchiAutomaton
from .paths import bfs_tree, cycle_through, tree_path
from .results import Lasso, Verdict, WorkerStats, WorkStats, check_deadline


class MapResult:
    """Outcome of one propagation pass: a lasso, or the stable id table.

    reach is the set of states reachable from the initial state, pops the
    work done: one per state of reach, plus one per queue pop.  parent is
    the breadth-first tree of the walk from init that found reach, as
    paths.bfs_tree returns it; paths.tree_path reads a lasso's stem off it.
    """

    __slots__ = ("lasso", "table", "pops", "reach", "parent")

    def __init__(self, lasso: Lasso | None, table: list[int], pops: int, reach: set[int],
                 parent: list[int | None]):
        self.lasso = lasso
        self.table = table
        self.pops = pops
        self.reach = reach
        self.parent = parent


def map_pass(aut: BuchiAutomaton, deadline: float | None = None) -> MapResult:
    """Propagate maximal accepting-predecessor ids to fixpoint.

    Sound but one-sided: a lasso result is definite, a None result only
    means this heuristic saw nothing.  Past deadline it raises
    WatchdogTimeout.
    """
    amask = aut.accept_mask
    edges = aut.edges
    order, parent = bfs_tree(aut, (aut.init,))
    reach = set(order)
    table = [0] * aut.num_states
    # the pops, the table and the first cycle seen all follow the order of
    # this queue, so it is seeded in the iteration order of the set
    queue = [s for s in reach if amask[s]]
    pops = len(reach)
    for u in queue:  # appended to while iterated: first in, first out
        pops += 1
        if not pops & 1023:
            check_deadline(deadline)
        val = u + 1 if amask[u] and u + 1 > table[u] else table[u]
        for t in edges[u]:
            if val > table[t]:
                if amask[t] and val == t + 1:
                    # t's own id came back around: a cycle through t
                    cycle = cycle_through(aut, t)
                    stem = tree_path(parent, t)
                    assert cycle is not None and stem is not None
                    return MapResult(Lasso(tuple(stem), tuple(cycle), 0), table, pops, reach, parent)
                table[t] = val
                queue.append(t)
    return MapResult(None, table, pops, reach, parent)


def owcty(aut: BuchiAutomaton, deadline: float | None = None) -> Verdict:
    """Full comparator: propagation first, then the shrinking fixpoint.

    Verdict extras: owcty_rounds counts fixpoint rounds (0 when the
    propagation pass already decided), map_hits is 1 in exactly that case.
    Past deadline the run raises WatchdogTimeout at its next read of the
    clock.
    """
    t0 = perf_counter()
    mr = map_pass(aut, deadline)
    pops = mr.pops

    def verdict(lasso: Lasso | None, rounds: int, hits: int) -> Verdict:
        stats = WorkStats([WorkerStats(blue_expansions=pops)], perf_counter() - t0)
        stats.extras["owcty_rounds"] = rounds
        stats.extras["map_hits"] = hits
        return Verdict(lasso, stats, winner=None if lasso is None else 0)

    if mr.lasso is not None:
        return verdict(mr.lasso, 0, 1)

    amask = aut.accept_mask
    edges = aut.edges
    candidates = list(mr.reach)
    indeg: list[int] | None = None  # edges into each candidate from candidates
    rounds = 0
    while candidates:
        check_deadline(deadline)
        rounds += 1
        kept, parent = bfs_tree(aut, [s for s in candidates if amask[s]])
        pops += len(kept)
        if indeg is None:
            # counted once, over the first closure; the states it missed
            # were never counted
            indeg = [0] * aut.num_states
            for s in kept:
                for t in edges[s]:
                    indeg[t] += 1
        elif len(kept) < len(candidates):
            for s in candidates:
                if parent[s] is None:
                    for t in edges[s]:
                        indeg[t] -= 1
        check_deadline(deadline)
        # strip states with no predecessor left; they cannot sit on a cycle
        dead = [s for s in kept if not indeg[s]]
        for s in dead:  # appended to while iterated
            for t in edges[s]:
                indeg[t] -= 1
                if not indeg[t]:
                    dead.append(t)
        pops += len(dead)
        if not dead and len(kept) == len(candidates):
            break
        # a stripped state keeps in-degree 0, every other one has more
        candidates = [s for s in kept if indeg[s]] if dead else kept

    lasso = None
    if candidates:
        for a in sorted(s for s in candidates if amask[s]):
            check_deadline(deadline)
            cycle = cycle_through(aut, a)
            if cycle is not None:
                stem = tree_path(mr.parent, a)
                assert stem is not None
                lasso = Lasso(tuple(stem), tuple(cycle), 0)
                break
        assert lasso is not None, "non-empty fixpoint must contain an accepting cycle"
    return verdict(lasso, rounds, 0)
