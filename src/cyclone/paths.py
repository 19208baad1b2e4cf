"""Breadth-first path and closure kernels over automaton graphs.

Every walk uses the list of states it has entered as its queue (iterated
while it is appended to), takes each state's edges in canonical order,
and marks a state when it first enters it.

bfs_tree walks everything reachable from a list of roots and keeps each
entered state's parent in a list indexed by state, which is also its
mark: None means not entered, and a root is its own parent.  Under
CPython 3.11 a list slot is read and written faster than a bytearray
byte, so recording the tree costs no more than a plain closure would.
tree_path reads the path from a state's root to it off that list: from
a single root, a shortest path to it.

cycle_through is the same walk from one state, which stops at the first
state it dequeues with an edge back to that state.  Breadth-first order
makes that the end of a shortest cycle, and its layers keep the order of
the state's successors, so a tie goes to the first successor that closes
a cycle.
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


def cycle_through(aut: BuchiAutomaton, s: int) -> list[int] | None:
    """Non-trivial cycle s -> ... -> s, returned without the repeated endpoint.

    Needs at least one edge, so a state without a self-loop must reach
    itself through a successor.  The shortest such cycle is returned, the
    first successor's on a tie.  None when no cycle exists.
    """
    edges = aut.edges
    parent: list[int | None] = [None] * aut.num_states
    parent[s] = s
    order = [s]
    for u in order:  # appended to while iterated
        for t in edges[u]:
            if t == s:
                return tree_path(parent, u)
            if parent[t] is None:
                parent[t] = u
                order.append(t)
    return None
