"""Breadth-first kernels: the tree walk's order, and its paths and cycles
against an independent reference."""

from hypothesis import given

from cyclone import BuchiAutomaton
from cyclone.paths import bfs_tree, cycle_through, tree_path
from strategies import ReadCounted, automata, bfs_path, fan_into_chain


def _reference_cycle(a, s):
    # one shortest path back from each successor, the shortest cycle kept,
    # the first successor's on a tie
    best = None
    for t in a.edges[s]:
        back = bfs_path(a, t, s)
        if back is not None and (best is None or len(back) < len(best)):
            best = back
    return None if best is None else [s] + best[:-1]


@given(automata(max_states=12, max_degree=4))
def test_tree_paths_are_the_breadth_first_paths(a):
    order, parent = bfs_tree(a, [a.init])
    assert order[0] == a.init
    assert len(set(order)) == len(order)
    assert set(order) == {s for s in range(a.num_states) if parent[s] is not None}
    depths = [len(tree_path(parent, s)) for s in order]
    assert depths == sorted(depths)
    for t in range(a.num_states):
        assert tree_path(parent, t) == bfs_path(a, a.init, t)


@given(automata(max_states=12, max_degree=4))
def test_a_walk_from_several_roots_enters_each_state_once(a):
    roots = [a.init, *range(0, a.num_states, 2), a.init]  # init is repeated
    distinct = list(dict.fromkeys(roots))
    order, parent = bfs_tree(a, roots)
    assert order[: len(distinct)] == distinct
    assert all(parent[r] == r for r in distinct)
    assert len(set(order)) == len(order)
    assert set(order) == {t for r in distinct for t in bfs_tree(a, [r])[0]}
    depths = [len(tree_path(parent, s)) for s in order]
    assert depths == sorted(depths)


@given(automata(max_states=12, max_degree=4))
def test_cycles_are_the_shortest_first_successor_cycles(a):
    for s in range(a.num_states):
        assert cycle_through(a, s) == _reference_cycle(a, s)


def test_a_cycle_costs_one_walk_however_many_successors_miss():
    # a walk back from each successor would read the chain 300 times
    a = fan_into_chain(300, 10_000)
    edges = ReadCounted(a.edges)
    counted = BuchiAutomaton(a.num_states, a.init, a.accepting, edges)
    assert cycle_through(counted, 0) == [0]
    reads = edges.reads  # a bare assert on edges would print all 10,301 lists
    assert reads == 1
    assert cycle_through(counted, 1) is None
    reads = edges.reads
    assert reads < 1 + a.num_states
