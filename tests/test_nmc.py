"""Optimistic detector with shared, helper-joinable repair passes."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import cyclone.multicore
from cyclone import (
    BuchiAutomaton,
    ColorStore,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    ndfs,
    nmc_ndfs,
    validate_lasso,
)
from cyclone.colors import BLUE, DANGEROUS, RED
from cyclone.results import Lasso
from strategies import automata, layered


def test_single_worker_matches_sequential_verdicts():
    for seed in range(20):
        a = gen_random(70, 2.0, 0.2, seed)
        v = nmc_ndfs(a, 1, seed)
        assert v.cycle_found == ndfs(a).cycle_found
        assert v.stats.extras["dangerous_count"] == 0
        assert v.stats.repair_expansions == 0


@settings(max_examples=25)
@given(automata(max_states=8), st.integers(0, 1000), st.integers(1, 8))
def test_verdict_matches_oracle(a, seed, n):
    v = nmc_ndfs(a, n, seed)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


def test_multi_worker_verdicts_on_mid_size_graphs():
    for seed in range(15):
        a = gen_random(120, 2.0, 0.1, seed)
        want = has_accepting_cycle(a)
        for n in (2, 4, 8):
            v = nmc_ndfs(a, n, seed)
            assert v.cycle_found == want, (seed, n)


def test_repair_does_not_trust_optimistic_red():
    # 0 -> 1 -> 2 -> 3 -> 1 with 2 accepting, in the state an optimistic
    # sibling leaves behind: 3 red, 2 dangerous.  The main pass promotes 2
    # to red before it repairs it, so a repair pruned at red clears 2
    # without looking and misses the cycle 1 2 3.
    a = BuchiAutomaton(4, 0, frozenset({2}), [[1], [2], [3], [1]])
    store = ColorStore(a.num_states, a.accepting)
    store.plane(RED)[3] = 1
    store.plane(DANGEROUS)[2] = 1
    v = nmc_ndfs(a, 1, 0, store=store)
    assert v.cycle_found
    assert validate_lasso(a, v.lasso)
    assert v.stats.repair_expansions == 3


def test_racing_repairs_keep_verdicts_and_bounds():
    # workers taking turns every 64 steps mark each other's accepting
    # states dangerous and repair them together
    repaired = 0
    for seed in range(24):
        a = layered(seed, back_edge=seed % 2 == 1)
        store = ColorStore(a.num_states, a.accepting)
        v = nmc_ndfs(a, 2 + seed % 2, seed, store=store)
        assert v.cycle_found == has_accepting_cycle(a), seed
        if v.lasso is not None:
            assert validate_lasso(a, v.lasso)
        else:
            assert all(store.counter_value(s) == 0 for s in a.accepting)
        for w in v.stats.workers:
            assert w.blue_expansions + w.red_expansions + w.repair_expansions <= 4 * a.num_states
        repaired += v.stats.repair_expansions
    assert repaired > 0


def test_per_worker_work_bound_four_visits():
    for seed in range(10):
        a = gen_random(60, 2.5, 0.3, seed)
        for n in (1, 2, 4, 8):
            v = nmc_ndfs(a, n, seed)
            for w in v.stats.workers:
                own = w.blue_expansions + w.red_expansions + w.repair_expansions
                assert own <= 4 * a.num_states


def test_no_cycle_runs_always_terminate():
    # finished workers look for open repairs between turns; the run must still wind down
    for seed in range(10):
        a = gen_lasso(seed % 4, 1 + seed % 5, False)
        v = nmc_ndfs(a, 8, seed)
        assert not v.cycle_found
        assert v.winner is None


def test_helper_join_counter_recorded():
    # on the dense layered graphs three workers meet each other's repairs:
    # a worker reaches a root already under repair, or picks an open task
    # off the board after its own pass
    tot = 0
    for seed in range(24):
        a = layered(seed, back_edge=seed % 2 == 1)
        v = nmc_ndfs(a, 3, seed)
        assert v.cycle_found == has_accepting_cycle(a), seed
        tot += v.stats.helper_joins
    assert tot > 0


def test_a_helper_off_the_board_can_win():
    # 0 -> 1 -> [4, 2], 2 -> 3 -> 1 with 1 accepting, and a dead-end chain
    # 4 -> ... -> 63.  With 2 and 4 pre-colored blue and red and 1
    # dangerous, worker 1 finishes its pass, picks the open repair of 1 off
    # the board, and closes the cycle 1 2 3 before worker 0's repair does
    a = BuchiAutomaton(64, 0, frozenset({1}), [[1], [4, 2], [3], [1]] + [[s + 1] for s in range(4, 63)] + [[]])
    store = ColorStore(a.num_states, a.accepting)
    for bit in (BLUE, RED):
        store.plane(bit)[2] = store.plane(bit)[4] = 1
    store.plane(DANGEROUS)[1] = 1
    v = nmc_ndfs(a, 2, 4, store=store)
    assert v.winner == 1
    assert [w.helper_joins for w in v.stats.workers] == [0, 1]
    assert v.lasso == Lasso((0, 1), (1, 2, 3), 0)


def test_a_repair_that_leaves_its_root_unsafe_fails_loudly(monkeypatch):
    # a participation that returns without making its root SAFE, as one
    # blocking on RED instead would, leaves the task open; the helper loop
    # would then re-join it forever without yielding, so no deadline could
    # stop it.  The stub gives up after 1,000 calls instead of hanging.
    calls = []

    def unsafe_search(aut, ws, repair=None, **_):
        calls.append(repair)
        if len(calls) > 1000:
            raise RuntimeError("the helper loop re-joined the task 1,000 times")
        if repair is not None:  # the main pass: one dangerous root, at init
            yield from repair((aut.init,))
        return None

    monkeypatch.setattr(cyclone.multicore, "nested_search", unsafe_search)
    with pytest.raises(AssertionError, match="left it unsafe"):
        nmc_ndfs(gen_lasso(1, 2, False), 1, 0)
    assert len(calls) == 3  # the main pass, its repair, the helper's first re-join
