"""Breadth-first path and closure kernels over automaton graphs.

Each walk keeps its visited states in a bytearray mask with one byte per
state, uses the list of states it has entered as its queue (iterated
while it is appended to), and, where it builds a path, keeps beside that
list the queue index of each state's parent.  A walk restricted to a
subset of states starts from a mask in which every state outside the
subset is already marked, so an edge costs one byte test either way.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton


def bfs_order(aut: BuchiAutomaton, roots, seen: bytearray | None = None) -> list[int]:
    """The states reachable from roots, in breadth-first order.

    Every state entered, roots included, is marked in seen (default: a
    fresh clear mask), and no marked state is entered; a caller that
    passes its own mask reads from it afterwards which states the walk
    reached.
    """
    if seen is None:
        seen = bytearray(aut.num_states)
    edges = aut.edges
    order = []
    for r in roots:
        if not seen[r]:
            seen[r] = 1
            order.append(r)
    for s in order:
        for t in edges[s]:
            if not seen[t]:
                seen[t] = 1
                order.append(t)
    return order


def reachable_from(aut: BuchiAutomaton, roots) -> set[int]:
    """Forward closure of roots."""
    return set(bfs_order(aut, roots))


def bfs_path(
    aut: BuchiAutomaton,
    src: int,
    target: int,
    barred: bytearray | None = None,
) -> list[int] | None:
    """Shortest path src -> target, or None.

    A path of length zero (src is the target) is returned as [src].  No
    state marked in the barred mask is visited, src included; the mask
    itself is not changed.
    """
    if barred is not None and barred[src]:
        return None
    if src == target:
        return [src]
    seen = bytearray(aut.num_states) if barred is None else bytearray(barred)
    seen[src] = 1
    edges = aut.edges
    queue = [src]
    parent = [-1]  # queue index of each queued state's parent
    for i, s in enumerate(queue):
        for t in edges[s]:
            if seen[t]:
                continue
            if t == target:
                path = [t]
                while i >= 0:
                    path.append(queue[i])
                    i = parent[i]
                path.reverse()
                return path
            seen[t] = 1
            queue.append(t)
            parent.append(i)
    return None


def cycle_through(aut: BuchiAutomaton, s: int, barred: bytearray | None = None) -> list[int] | None:
    """Non-trivial cycle s -> ... -> s, returned without the repeated endpoint.

    Needs at least one edge, so a state without a self-loop must reach
    itself through a successor.  The cycle avoids the states marked in
    barred.  The shortest such cycle is returned, the first successor's
    on a tie.  None when no cycle exists.
    """
    best: list[int] | None = None
    for t in aut.edges[s]:
        if barred is not None and barred[t]:
            continue
        if t == s:
            return [s]
        back = bfs_path(aut, t, s, barred)
        if back is not None:
            cand = [s] + back[:-1]
            if best is None or len(cand) < len(best):
                best = cand
    return best
