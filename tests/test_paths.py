"""Breadth-first kernels: the tree walk against the path walk."""

from hypothesis import given

from cyclone.paths import bfs_order, bfs_path, bfs_tree, tree_path
from strategies import automata


@given(automata(max_states=12, max_degree=4))
def test_tree_paths_are_the_breadth_first_paths(a):
    order, parent = bfs_tree(a, a.init)
    assert order == bfs_order(a, [a.init])
    for t in range(a.num_states):
        assert tree_path(parent, t) == bfs_path(a, a.init, t)
