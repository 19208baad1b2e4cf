"""Reference checker: SCC-based accepting-cycle decision and lasso validation.

This module is the ground truth the search algorithms are measured
against, so it shares no traversal logic with them: the decision comes
from an iterative Tarjan SCC pass over the subgraph reachable from init.
An accepting cycle exists iff some reachable SCC contains an accepting
state and is non-trivial (two or more states, or one state with a
self-loop).
"""

from __future__ import annotations

from .automaton import BuchiAutomaton
from .paths import bfs_path, cycle_through
from .results import Lasso

_VISIT, _EDGE, _FOLD, _ROOT = range(4)


def sccs_from_init(aut: BuchiAutomaton) -> list[list[int]]:
    """Strongly connected components of the part of aut reachable from init.

    Iterative Tarjan with an explicit opcode stack; components come out in
    reverse topological order.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    todo: list[tuple[int, int, int]] = [(_VISIT, aut.init, -1)]
    counter = 0
    while todo:
        op, s, t = todo.pop()
        if op == _VISIT:
            if s in index:
                continue
            index[s] = low[s] = counter
            counter += 1
            stack.append(s)
            on_stack.add(s)
            todo.append((_ROOT, s, -1))
            for u in reversed(aut.edges[s]):
                todo.append((_EDGE, s, u))
        elif op == _EDGE:
            if t not in index:
                # fold low[t] into low[s] once t's subtree is done
                todo.append((_FOLD, s, t))
                todo.append((_VISIT, t, -1))
            elif t in on_stack:
                if index[t] < low[s]:
                    low[s] = index[t]
        elif op == _FOLD:
            if low[t] < low[s]:
                low[s] = low[t]
        elif low[s] == index[s]:  # _ROOT
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == s:
                    break
            comps.append(comp)
    return comps


def _accepting_cycle_scc(aut: BuchiAutomaton) -> list[int] | None:
    """An SCC witnessing an accepting cycle, or None."""
    for comp in sccs_from_init(aut):
        acc = [s for s in comp if aut.accept_mask[s]]
        if not acc:
            continue
        if len(comp) > 1:
            return comp
        s = comp[0]
        if s in aut.edges[s]:
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
    members = set(comp)
    for a in comp:
        if not aut.accept_mask[a]:
            continue
        cycle = cycle_through(aut, a, members)
        if cycle is None:
            continue  # accepting state in a multi-state SCC always cycles, but stay total
        stem = bfs_path(aut, aut.init, {a})
        assert stem is not None, "SCC states are reachable from init by construction"
        lasso = Lasso(tuple(stem), tuple(cycle), 0)
        assert validate_lasso(aut, lasso)
        return lasso
    raise AssertionError("accepting SCC without a cycle through an accepting state")


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


def enumerate_accepting_cycle(aut: BuchiAutomaton, max_states: int = 8) -> bool:
    """Second, independent oracle for tiny graphs: brute-force cycle search.

    Enumerates simple paths from every reachable accepting state and asks
    whether any returns to its origin.  Exponential, so it refuses graphs
    larger than max_states; use it to cross-check the SCC decision.
    """
    if aut.num_states > max_states:
        raise ValueError(f"brute-force oracle only handles <= {max_states} states")
    reachable = {aut.init}
    frontier = [aut.init]
    while frontier:
        s = frontier.pop()
        for t in aut.edges[s]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)

    def closes(origin: int, s: int, seen: frozenset[int]) -> bool:
        for t in aut.edges[s]:
            if t == origin:
                return True
            if t not in seen and closes(origin, t, seen | {t}):
                return True
        return False

    return any(
        closes(a, a, frozenset({a}))
        for a in sorted(aut.accepting)
        if a in reachable
    )
