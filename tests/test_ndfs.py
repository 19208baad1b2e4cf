"""Sequential nested search against the SCC oracle."""

import random

from hypothesis import given
import hypothesis.strategies as st

from cyclone import (
    BuchiAutomaton,
    ColorStore,
    OrderKind,
    SuccessorOrder,
    WorkerStats,
    endfs,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    lndfs,
    ndfs,
    nmc_ndfs,
    order_key,
    validate_lasso,
)
from cyclone.colors import BLUE
from cyclone.search import nested_search
from strategies import automata, finish


def test_no_cycle_run_is_frozen():
    # 5 states, accepting init off the cycle: blue covers all 5, the one
    # red search from the init covers all 5 again
    v = ndfs(gen_lasso(2, 3, False))
    assert not v.cycle_found
    assert v.stats.blue_expansions == 5
    assert v.stats.red_expansions == 5
    assert v.winner is None


def test_cycle_run_is_frozen():
    v = ndfs(gen_lasso(2, 3, True))
    assert v.cycle_found
    assert v.lasso.stem == (0, 1, 2)
    assert v.lasso.cycle == (2, 3, 4)
    assert v.lasso.accept_index == 0
    # found on the blue stack before any red search started
    assert v.stats.blue_expansions == 5
    assert v.stats.red_expansions == 0


def test_accepting_self_loop():
    a = BuchiAutomaton(1, 0, frozenset({0}), [[0]])
    v = ndfs(a)
    assert v.lasso.stem == (0,)
    assert v.lasso.cycle == (0,)


@given(automata(max_states=8))
def test_verdict_matches_oracle(a):
    assert ndfs(a).cycle_found == has_accepting_cycle(a)


@given(automata(max_states=8), st.integers(0, 2**32))
def test_verdict_matches_oracle_under_permutation(a, seed):
    v = ndfs(a, SuccessorOrder(0, seed))
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


@given(automata(max_states=8), st.integers(0, 2**32))
def test_allred_same_verdict_fewer_or_equal_red(a, seed):
    plain = ndfs(a, SuccessorOrder(0, seed))
    pruned = ndfs(a, SuccessorOrder(0, seed), allred=True)
    assert plain.cycle_found == pruned.cycle_found
    assert pruned.stats.red_expansions <= plain.stats.red_expansions


@given(automata(max_states=8), st.integers(0, 2**32))
def test_work_bound_two_visits_per_state(a, seed):
    for allred in (False, True):
        v = ndfs(a, SuccessorOrder(0, seed), allred=allred)
        total = v.stats.blue_expansions + v.stats.red_expansions
        assert total <= 2 * a.num_states


def test_mid_size_random_graphs_agree_with_oracle():
    for seed in range(40):
        a = gen_random(80, 2.0, 0.15, seed)
        want = has_accepting_cycle(a)
        v = ndfs(a, SuccessorOrder(0, seed))
        assert v.cycle_found == want
        if v.lasso is not None:
            assert validate_lasso(a, v.lasso)


def test_stack_depth_tracked():
    v = ndfs(gen_lasso(3, 4, False))
    assert v.stats.workers[0].max_stack_depth == 8


def _mixed_degree_graph(n: int, accept_prob: float, seed: int) -> BuchiAutomaton:
    # out-degrees 0 to 4, so every expand meets lists with no order to
    # permute (0 or 1 successors) and lists with one (2 or more)
    rng = random.Random(seed)
    edges, accepting = [], set()
    for s in range(n):
        edges.append(rng.sample(range(n), rng.choice((0, 1, 1, 2, 2, 3, 4))))
        if rng.random() < accept_prob:
            accepting.add(s)
    return BuchiAutomaton(n, 0, frozenset(accepting), edges)


# Lassos and (blue, red) counts under permuted orders, frozen so that a
# change to how successors are hashed or permuted cannot move a search.
_CYC0 = (53, 65, 5, 68, 77, 12, 78, 10, 7, 71, 24, 60, 39, 14, 28)
_CYC2 = (65, 12, 75, 24, 43, 13, 51, 29, 7, 54, 46, 33, 23, 79, 50)
_STEM6 = (0, 62, 43, 31, 60, 4, 24, 57, 56, 35, 50, 63, 14, 25, 38, 72, 41, 67, 36, 71)
_NDFS_GOLDEN = {
    # seed: (lasso, (blue, red) plain, (blue, red) allred)
    0: (((0, 53), _CYC0, 12), (36, 7), (36, 3)),
    2: (((0, 10, 65), _CYC2, 4), (38, 20), (38, 11)),
    6: ((_STEM6, (71, 73, 1, 75, 47, 3, 52), 0), (37, 1), (37, 0)),
    9: (None, (58, 3), (58, 0)),
}
_STEM6_SHARED = (0, 33, 41, 62, 43, 31, 60, 22, 56, 35, 20, 37, 7, 32, 63, 14, 67, 36, 71)
_SHARED_GOLDEN = {
    # seed: (lasso, (blue, red) allred shared pass, (blue, red) optimistic shared pass), worker 1's keys
    0: (((0, 49, 7, 71), (71, 24, 60, 39, 14, 28, 53, 65, 5, 68), 3), (37, 7), (37, 17)),
    2: (((0, 10, 65, 12, 75), (75, 24, 43, 13, 51, 4, 47, 71), 2), (38, 7), (38, 19)),
    6: ((_STEM6_SHARED, (71,), 0), (28, 0), (28, 1)),
    9: (None, (58, 0), (58, 3)),
}


def _shape(lasso):
    return None if lasso is None else (lasso.stem, lasso.cycle, lasso.accept_index)


def test_permuted_ndfs_orders_are_frozen():
    for seed, (lasso, plain, allred) in _NDFS_GOLDEN.items():
        a = _mixed_degree_graph(80, 0.05, seed)
        assert {min(len(succ), 3) for succ in a.edges} == {0, 1, 2, 3}
        for flag, counts in ((False, plain), (True, allred)):
            v = ndfs(a, SuccessorOrder(0, seed), allred=flag)
            assert _shape(v.lasso) == lasso
            assert (v.stats.blue_expansions, v.stats.red_expansions) == counts


def test_permuted_shared_color_passes_are_frozen():
    def no_repair(root, stem):
        raise AssertionError("a lone optimistic pass never marks a state dangerous")

    for seed, (lasso, lcounts, ecounts) in _SHARED_GOLDEN.items():
        a = _mixed_degree_graph(80, 0.05, seed)
        keys = (order_key(1, seed, OrderKind.BLUE), order_key(1, seed, OrderKind.RED))
        ws = WorkerStats()
        store = ColorStore(a.num_states, a.accepting)
        res = finish(nested_search(a, ws, store=store, allred=True, keys=keys))
        assert _shape(res) == lasso
        assert (ws.blue_expansions, ws.red_expansions) == lcounts
        ws = WorkerStats()
        store = ColorStore(a.num_states, a.accepting)
        res = finish(nested_search(a, ws, store=store, block=BLUE, keys=keys, repair=no_repair))
        assert _shape(res) == lasso
        assert (ws.blue_expansions, ws.red_expansions) == ecounts


def _one_worker_run(v):
    w = v.stats.workers[0]
    return (_shape(v.lasso), w.blue_expansions, w.red_expansions, w.repair_expansions, w.max_stack_depth)


def test_one_worker_shared_color_detectors_are_ndfs():
    # alone, the shared-red detector is the allred search and both
    # optimistic ones are the plain search: same lasso, same work
    for seed in range(300):
        a = _mixed_degree_graph(60, (0.02, 0.1, 0.3)[seed % 3], seed)
        assert _one_worker_run(lndfs(a, 1)) == _one_worker_run(ndfs(a, None, allred=True)), seed
        plain = _one_worker_run(ndfs(a, None))
        assert _one_worker_run(endfs(a, 1)) == plain, seed
        assert _one_worker_run(nmc_ndfs(a, 1)) == plain, seed
