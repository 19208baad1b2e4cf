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

The expansion count is the work of both phases: each state the initial
closure reaches, each queue pop of the propagation, and each state kept
or stripped in a fixpoint round.  The breadth-first walks that build a
lasso (bfs_path, cycle_through) run once per cycle found and stay
uncounted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter

from .automaton import BuchiAutomaton
from .paths import bfs_path, cycle_through, reachable_from
from .results import Lasso, Verdict, WorkerStats, WorkStats


@dataclass(slots=True)
class MapResult:
    """Outcome of one propagation pass: a lasso, or the stable id table.

    reach is the set of states reachable from the initial state, pops the
    work done: one per state of reach, plus one per queue pop.
    """

    lasso: Lasso | None
    table: list[int]
    pops: int
    reach: set[int]


def map_pass(aut: BuchiAutomaton) -> MapResult:
    """Propagate maximal accepting-predecessor ids to fixpoint.

    Sound but one-sided: a lasso result is definite, a None result only
    means this heuristic saw nothing.
    """
    n = aut.num_states
    amask = aut.accept_mask
    reach = reachable_from(aut, [aut.init])
    table = [0] * n
    queue = deque(s for s in reach if amask[s])
    pops = len(reach)
    while queue:
        u = queue.popleft()
        pops += 1
        val = u + 1 if amask[u] and u + 1 > table[u] else table[u]
        for t in aut.edges[u]:
            if val > table[t]:
                if amask[t] and val == t + 1:
                    # t's own id came back around: a cycle through t
                    cycle = cycle_through(aut, t)
                    stem = bfs_path(aut, aut.init, {t})
                    assert cycle is not None and stem is not None
                    return MapResult(Lasso(tuple(stem), tuple(cycle), 0), table, pops, reach)
                table[t] = val
                queue.append(t)
    return MapResult(None, table, pops, reach)


def owcty(aut: BuchiAutomaton) -> Verdict:
    """Full comparator: propagation first, then the shrinking fixpoint.

    Verdict extras: owcty_rounds counts fixpoint rounds (0 when the
    propagation pass already decided), map_hits is 1 in exactly that case.
    """
    t0 = perf_counter()
    mr = map_pass(aut)
    pops = mr.pops
    if mr.lasso is not None:
        stats = WorkStats([WorkerStats(blue_expansions=pops)], perf_counter() - t0)
        stats.extras["owcty_rounds"] = 0
        stats.extras["map_hits"] = 1
        return Verdict(mr.lasso, stats, winner=0)

    amask = aut.accept_mask
    candidates = mr.reach
    rounds = 0
    while candidates:
        rounds += 1
        seeds = [s for s in candidates if amask[s]]
        kept = reachable_from(aut, seeds, allowed=candidates)
        pops += len(kept)
        # strip states with no predecessor left; they cannot sit on a cycle
        indeg = dict.fromkeys(kept, 0)
        for s in kept:
            for t in aut.edges[s]:
                if t in indeg:
                    indeg[t] += 1
        dead = deque(s for s in kept if indeg[s] == 0)
        while dead:
            s = dead.popleft()
            pops += 1
            kept.discard(s)
            for t in aut.edges[s]:
                if t in indeg and t in kept:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        dead.append(t)
        if kept == candidates:
            break
        candidates = kept

    lasso = None
    if candidates:
        for a in sorted(s for s in candidates if amask[s]):
            cycle = cycle_through(aut, a, candidates)
            if cycle is not None:
                stem = bfs_path(aut, aut.init, {a})
                assert stem is not None
                lasso = Lasso(tuple(stem), tuple(cycle), 0)
                break
        assert lasso is not None, "non-empty fixpoint must contain an accepting cycle"

    stats = WorkStats([WorkerStats(blue_expansions=pops)], perf_counter() - t0)
    stats.extras["owcty_rounds"] = rounds
    stats.extras["map_hits"] = 0
    return Verdict(lasso, stats, winner=0 if lasso else None)
