"""Breadth-first kernels: the tree walk's order, and its paths against the path walk's."""

from hypothesis import given

from cyclone.paths import bfs_path, bfs_tree, tree_path
from strategies import automata


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
