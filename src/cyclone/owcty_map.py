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
restriction to the candidates.

The closure is kept across rounds, not recomputed.  Each candidate on it
hangs from a parent on a path that starts at an accepting candidate, a
root and its own parent; one bytearray marks every state as out, on
this forest, or orphaned.  Before round 1 every reachable state is an
orphan.  A round makes its accepting orphans roots, hangs each other
orphan from a predecessor on the forest if it has one, and walks
breadth-first from those over the remaining orphans.  The orphans the
walk misses are exactly the candidates a closure from the accepting
candidates would miss.  A candidate whose forest path is intact is
reached.  So is an orphan that an accepting candidate reaches: the path
to it runs over orphans only from its last step off the forest, or from
its start when that is an accepting orphan.

In-degrees live in a list.  The pass that counts them, once, over the
reachable states before round 1, also builds the predecessor lists.
The missed states' edges lower them, the states that reach 0 seed the
strip, and the stripped states' edges lower them in turn, so no round
scans all kept states.  The forest descendants of the stripped states
are the next round's orphans.  A round therefore costs its orphans, the
states it removes and their edges, never more than a closure of the
candidates.

The initial closure is one paths.bfs_tree walk from init, which also
records each reachable state's breadth-first parent.  Every lasso's stem
is read off that tree with paths.tree_path: the shortest path from init,
so no stem costs a second walk of the reachable graph.  A lasso's cycle
comes from cycle_through, one walk from its state, which runs only once
a cycle is known to exist.

The expansion count is OWCTY's work in both phases: each state the
initial closure reaches, each queue pop of the propagation, and each
state kept or stripped in a fixpoint round, the kept ones added as a
number.  The pops include clean ones, of a state that has not risen
since its last pop; they read no edges, since they would pass nothing
on.  The lasso's cycle walks stay uncounted.  Since the kept states
are no longer walked, a fixpoint of many rounds counts more than the
successor lists this implementation reads: on 400 nested rings, one
peeled per round, the count is 243,799 for about 7,600 reads.

A deadline, when given, is read after the initial closure, before every
1,024th pop of the propagation (pops counted on from the reachable
states), after the predecessor pass, before each phase of a fixpoint
round, and before each accepting state the lasso search tries.  So
between two reads the run walks the reachable graph at most once, even
on an input with no accepting state, whose propagation never pops; a run
past it raises WatchdogTimeout.  The lasso search needs its read: it
tries the accepting survivors in id order, and survivors that sit on no
cycle, such as a dead-end chain behind the cycle, each cost a full walk.
"""

from __future__ import annotations

from itertools import chain, islice
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
    check_deadline(deadline)
    reach = set(order)
    table = [0] * aut.num_states
    # the pops, the table and the first cycle seen all follow the order of
    # this queue, so it is seeded in the iteration order of the set
    queue = [s for s in reach if amask[s]]
    # a state is dirty from a rise to its next pop; a clean pop is counted
    # but reads no edges: its last pop left every successor at least at its
    # value, and entries only grow
    dirty = bytearray(amask)
    it = iter(queue)  # sees the appends made while it is drained
    # the clock is read before each pop whose number, counted on from
    # len(reach), is a multiple of 1,024, so the queue drains in slices
    # that end just before those pops, with no per-pop count
    pops = len(reach)
    k = 1023 - (pops & 1023)
    while True:
        for u in islice(it, k):  # first in, first out
            if not dirty[u]:
                continue
            dirty[u] = 0
            val = u + 1 if amask[u] and u + 1 > table[u] else table[u]
            for t in edges[u]:
                if val > table[t]:
                    if amask[t] and val == t + 1:
                        # t's own id came back around: a cycle through t
                        cycle = cycle_through(aut, t)
                        stem = tree_path(parent, t)
                        assert cycle is not None and stem is not None
                        # every entry is popped but those still ahead
                        pops = len(reach) + len(queue) - sum(1 for _ in it)
                        return MapResult(Lasso(tuple(stem), tuple(cycle), 0), table, pops, reach, parent)
                    table[t] = val
                    dirty[t] = 1
                    queue.append(t)
        # the slice handed out k entries, or all that were left
        pops = min(pops + k, len(reach) + len(queue))
        if pops == len(reach) + len(queue):
            break
        check_deadline(deadline)
        k = 1024
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
    preds: list[list[int]] = [[] for _ in range(aut.num_states)]
    for s in mr.reach:
        for t in edges[s]:
            preds[t].append(s)
    check_deadline(deadline)
    indeg = [len(p) for p in preds]  # edges into each state from the candidates
    mark = bytearray(aut.num_states)  # 0 out, 1 on the forest, 2 orphaned
    parent = [0] * aut.num_states
    orphans = list(mr.reach)
    for s in orphans:
        mark[s] = 2
    live = len(orphans)
    rounds = 0
    while live:
        check_deadline(deadline)
        rounds += 1
        # accepting orphans become roots, and an orphan with a predecessor on
        # the forest hangs from it; a walk from those then takes in every
        # orphan it reaches, so the orphans left over are the missed ones
        found = []
        for s in orphans:
            if amask[s]:
                parent[s] = s
            else:
                for p in preds[s]:
                    if mark[p] == 1:
                        parent[s] = p
                        break
                else:
                    continue
            mark[s] = 1
            found.append(s)
        for s in found:  # appended to while iterated
            for t in edges[s]:
                if mark[t] == 2:
                    mark[t] = 1
                    parent[t] = s
                    found.append(t)
        missed = [s for s in orphans if mark[s] == 2]
        check_deadline(deadline)
        # strip states with no predecessor left; they cannot sit on a cycle.
        # Only round 1 starts with such states, all of them orphans; later a
        # kept state loses its last predecessor only as the missed ones go
        dead = [s for s in orphans if mark[s] == 1 and not indeg[s]]
        for s in missed:
            mark[s] = 0
            for t in edges[s]:
                indeg[t] -= 1
                if not indeg[t] and mark[t] == 1:
                    dead.append(t)
        for s in dead:  # appended to while iterated
            mark[s] = 0
            for t in edges[s]:
                indeg[t] -= 1
                if not indeg[t]:
                    dead.append(t)
        kept = live - len(missed)
        pops += kept + len(dead)
        if not dead and not missed:
            break
        live = kept - len(dead)
        # the next round's orphans: every forest descendant of a stripped state
        orphans = []
        for s in chain(dead, orphans):  # appended to while iterated
            for t in edges[s]:
                if mark[t] == 1 and parent[t] == s:
                    mark[t] = 2
                    orphans.append(t)

    lasso = None
    if live:
        for a in sorted(s for s in mr.reach if mark[s] and amask[s]):
            check_deadline(deadline)
            cycle = cycle_through(aut, a)
            if cycle is not None:
                stem = tree_path(mr.parent, a)
                assert stem is not None
                lasso = Lasso(tuple(stem), tuple(cycle), 0)
                break
        assert lasso is not None, "non-empty fixpoint must contain an accepting cycle"
    return verdict(lasso, rounds, 0)
