"""Reference checker: SCC-based accepting-cycle decision and lasso validation.

This module is the ground truth the search algorithms are measured
against, so it shares no traversal logic with them: the decision comes
from an iterative Tarjan SCC pass over the subgraph reachable from init,
kept here and calling nothing of the detectors.  An accepting cycle
exists iff some reachable SCC contains an accepting state and is
non-trivial (two or more states, or one state with a self-loop).  Tarjan
closes a component only once it is complete, so the decision stops at
the first accepting non-trivial one to close and leaves the rest of the
graph unread.  Only the witness lasso of a cyclic verdict borrows the
breadth-first path helpers of paths.py.
"""

from __future__ import annotations

from collections.abc import Iterator

from .automaton import BuchiAutomaton
from .paths import bfs_tree, cycle_through, tree_path
from .results import Lasso


def sccs_from_init(aut: BuchiAutomaton) -> list[list[int]]:
    """Strongly connected components of the part of aut reachable from init.

    Iterative Tarjan on flat arrays: index and low lists (index -1 for a
    state not yet visited), a bytearray on-stack mask, and one
    (state, successor iterator) frame per open state, the top one held in
    locals.  Successors are taken in edge order; components come out in
    reverse topological order, each listed from the last state pushed
    down to its root.
    """
    return list(_tarjan(aut))


def _tarjan(aut: BuchiAutomaton) -> Iterator[list[int]]:
    """sccs_from_init's components, each yielded as it closes."""
    edges = aut.edges
    index = [-1] * aut.num_states
    low = [0] * aut.num_states
    on_stack = bytearray(aut.num_states)
    stack: list[int] = []
    init = aut.init
    index[init] = low[init] = 0
    counter = 1
    stack.append(init)
    on_stack[init] = 1
    s, succs = init, iter(edges[init])
    frames = []
    while True:
        for t in succs:
            if index[t] < 0:
                index[t] = low[t] = counter
                counter += 1
                stack.append(t)
                on_stack[t] = 1
                frames.append((s, succs))
                s, succs = t, iter(edges[t])
                break
            if on_stack[t] and index[t] < low[s]:
                low[s] = index[t]
        else:
            # s is done: close its component if it is a root, then fold its
            # low link into its parent's (a root's cannot lower it)
            ls = low[s]
            if ls == index[s]:
                if stack[-1] == s:
                    stack.pop()
                    on_stack[s] = 0
                    yield [s]
                else:
                    k = len(stack) - 2
                    while stack[k] != s:
                        k -= 1
                    comp = stack[k:]
                    del stack[k:]
                    comp.reverse()
                    for w in comp:
                        on_stack[w] = 0
                    yield comp
            if not frames:
                return
            s, succs = frames.pop()
            if ls < low[s]:
                low[s] = ls


def _accepting_cycle_scc(aut: BuchiAutomaton) -> list[int] | None:
    """The first SCC to close that witnesses an accepting cycle, or None."""
    amask = aut.accept_mask
    for comp in _tarjan(aut):
        if len(comp) > 1:
            if any(amask[s] for s in comp):
                return comp
        elif amask[comp[0]] and comp[0] in aut.edges[comp[0]]:
            return comp
    return None


def has_accepting_cycle(aut: BuchiAutomaton) -> bool:
    """True iff an accepting cycle is reachable from init."""
    return _accepting_cycle_scc(aut) is not None


def witness_lasso(aut: BuchiAutomaton) -> Lasso | None:
    """A concrete lasso counterexample, or None when the language is empty."""
    comp = _accepting_cycle_scc(aut)
    if comp is None:
        return None
    # every state of a non-trivial SCC lies on a cycle, and every cycle
    # through it stays inside the SCC
    a = next(s for s in comp if aut.accept_mask[s])
    cycle = cycle_through(aut, a)
    stem = tree_path(bfs_tree(aut, [aut.init])[1], a)
    assert cycle is not None and stem is not None
    lasso = Lasso(tuple(stem), tuple(cycle), 0)
    assert validate_lasso(aut, lasso)
    return lasso


def validate_lasso(aut: BuchiAutomaton, lasso: Lasso) -> bool:
    """Total check of the lasso shape against the automaton.

    Valid iff the stem starts at init, consecutive states are edges, the
    stem ends on the cycle's first state (stem[-1] == cycle[0]), the cycle
    is non-empty and closes, and accept_index marks an accepting cycle
    state.
    """
    stem, cycle = lasso.stem, lasso.cycle
    if not stem or not cycle:
        return False
    if any(not (0 <= s < aut.num_states) for s in stem + cycle):
        return False
    if stem[0] != aut.init:
        return False
    for s, t in zip(stem, stem[1:]):
        if t not in aut.edges[s]:
            return False
    if stem[-1] != cycle[0]:
        return False
    for s, t in zip(cycle, cycle[1:]):
        if t not in aut.edges[s]:
            return False
    if cycle[0] not in aut.edges[cycle[-1]]:
        return False
    if not (0 <= lasso.accept_index < len(cycle)):
        return False
    return bool(aut.accept_mask[cycle[lasso.accept_index]])

