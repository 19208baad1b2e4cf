"""Breadth-first path and closure kernels over automaton graphs.

Every walk uses the list of states it has entered as its queue (iterated
while it is appended to), takes each state's edges in canonical order,
and marks a state when it first enters it.

bfs_tree walks everything reachable from a list of roots and keeps each
entered state's parent in a list indexed by state, which is also its
mark: None means not entered, and a root is its own parent.  Under
CPython 3.11 a list slot is read and written faster than a bytearray
byte, so recording the tree costs no more than a plain closure would.
tree_path reads the path from a state's root to it off that list.  From
a single root it is the path bfs_path returns, because both walks enter
every state from the same parent.

bfs_path keeps its marks in a bytearray mask with one byte per state; a
walk that must avoid some states starts from a copy of a mask in which
they are already marked, so an edge costs one byte test either way.
Beside its queue it keeps the queue index of each state's parent, and
stops at its target.
"""

from __future__ import annotations

from .automaton import BuchiAutomaton


def reachable_from(aut: BuchiAutomaton, roots) -> set[int]:
    """Forward closure of roots."""
    return set(bfs_tree(aut, roots)[0])


def bfs_tree(aut: BuchiAutomaton, roots) -> tuple[list[int], list[int | None]]:
    """The states reachable from roots in breadth-first order, and their parents.

    The order lists each reached state once, the roots first (a repeated
    root is skipped).  parent[s] is the state whose edge first entered
    s, s itself for a root, and None for every state the walk did not
    reach.
    """
    edges = aut.edges
    parent: list[int | None] = [None] * aut.num_states
    order = []
    for r in roots:
        if parent[r] is None:
            parent[r] = r
            order.append(r)
    for s in order:
        for t in edges[s]:
            if parent[t] is None:
                parent[t] = s
                order.append(t)
    return order, parent


def tree_path(parent: list[int | None], target: int) -> list[int] | None:
    """The tree path from target's bfs_tree root to target, or None if unreached."""
    if parent[target] is None:
        return None
    path = [target]
    while (up := parent[target]) != target:
        path.append(up)
        target = up
    path.reverse()
    return path


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
