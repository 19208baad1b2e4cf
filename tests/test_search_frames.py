"""The engine's stack bookkeeping on hand-built graphs whose stacks are known.

A blue search's depth is the number of states on its stack.  A red
search's depth is the blue stack plus the red stack, the red root
counted in both, since it sits on top of the one and at the bottom of
the other.  A repair counts from its root, the stem's last state.
"""

from cyclone import BuchiAutomaton, Lasso, WorkerStats, ndfs, validate_lasso
from cyclone.search import nested_search
from strategies import finish


def _aut(edges, accepting):
    return BuchiAutomaton(len(edges), 0, frozenset(accepting), edges)


def _checked(a, lasso, stem, cycle, accept_index):
    assert lasso == Lasso(stem, cycle, accept_index)
    assert lasso.stem[-1] == lasso.cycle[0]
    assert validate_lasso(a, lasso)


# --- max_stack_depth


def test_depth_of_a_blue_only_search():
    # no accepting state, so no red search; the deeper branch 0-3-4-5
    # is searched after the branch 0-1-2
    a = _aut([[1, 3], [2], [], [4], [5], []], ())
    v = ndfs(a)
    assert not v.cycle_found
    assert v.stats.red_expansions == 0
    assert v.stats.workers[0].max_stack_depth == 4


def test_depth_of_an_allred_red_search_rooted_deep_in_blue():
    # blue reaches 0-1-2-3-4-5-6, 7 deep.  The edge 6->4 keeps 4, 5 and 6
    # unblocked, so the accepting 3 runs a red search from blue depth 4:
    # red stack 3-4-5-6, depth 4 + 4 = 8
    a = _aut([[1], [2], [3], [4], [5], [6], [4]], {3})
    v = ndfs(a, allred=True)
    assert not v.cycle_found
    assert v.stats.red_expansions == 4
    assert v.stats.workers[0].max_stack_depth == 8


def test_depth_of_an_optimistic_red_search():
    # blue reaches 0-1-2-3-4-5, 6 deep; the accepting 2 runs a red search
    # from blue depth 3 along 2-3-4-5: depth 3 + 4 = 7
    a = _aut([[1], [2], [3], [4], [5], []], {2})
    v = ndfs(a)
    assert not v.cycle_found
    assert v.stats.red_expansions == 4
    assert v.stats.workers[0].max_stack_depth == 7


def test_depth_of_a_repair_counts_from_its_root():
    # the repair of 2 reaches 2-3-4-5 in blue, 4 deep; the accepting 4
    # runs a red search from blue depth 3 along 4-5: depth 3 + 2 = 5
    a = _aut([[1], [2], [3], [4], [5], []], {4})
    ws = WorkerStats()
    assert finish(nested_search(a, ws, stem=(0, 1, 2))) is None
    assert ws.repair_expansions == 4 + 2
    assert ws.max_stack_depth == 5


# --- the lassos _splice builds


def test_lasso_closed_in_blue_by_early_detection():
    # 3 -> 1 meets the accepting 1 cyan on the blue stack 0-1-2-3
    a = _aut([[1], [2], [3], [1]], {1})
    v = ndfs(a)
    assert v.stats.red_expansions == 0
    _checked(a, v.lasso, (0, 1), (1, 2, 3), 0)


def test_lasso_closed_in_an_allred_red_search():
    # no edge into cyan has an accepting end, so blue finds nothing; the
    # red search from 2 runs 2-3-4, depth 3, and 4 -> 1 closes the cycle
    # through blue 1-2 and red 2-3-4
    a = _aut([[1], [2], [3], [4], [1]], {2})
    v = ndfs(a, allred=True)
    assert v.stats.red_expansions == 3
    _checked(a, v.lasso, (0, 1), (1, 2, 3, 4), 1)


def test_lasso_closed_in_an_optimistic_red_search():
    # the red search from 3 runs 3-4, and 4 -> 0 closes the cycle from the
    # bottom of the blue stack
    a = _aut([[1], [2], [3], [4], [0]], {3})
    v = ndfs(a)
    assert v.stats.red_expansions == 2
    _checked(a, v.lasso, (0,), (0, 1, 2, 3, 4), 3)


def test_repair_lasso_stem_carries_the_prefix():
    # the repair of 2 closes 4 -> 2 in the red search from 3; its stem is
    # the prefix 0-1 followed by the repair's blue stack up to 2
    a = _aut([[1], [2], [3], [4], [2]], {3})
    ws = WorkerStats()
    lasso = finish(nested_search(a, ws, stem=(0, 1, 2)))
    assert ws.repair_expansions == 3 + 2
    _checked(a, lasso, (0, 1, 2), (2, 3, 4), 1)
