"""Shared-red detector: verdicts, the full-red postcondition, counters."""

from hypothesis import given, settings
import hypothesis.strategies as st

from cyclone import (
    ColorStore,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    lndfs,
    ndfs,
    validate_lasso,
)
from cyclone.colors import RED
from strategies import automata


def test_one_worker_matches_sequential_verdicts():
    for seed in range(20):
        a = gen_random(60, 2.0, 0.2, seed)
        assert lndfs(a, 1, seed).cycle_found == ndfs(a).cycle_found


@settings(max_examples=25)
@given(automata(max_states=8), st.integers(0, 1000), st.integers(1, 8))
def test_verdict_matches_oracle(a, seed, n):
    v = lndfs(a, n, seed)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


def test_every_state_red_after_full_exploration():
    # no accepting cycle and everything reachable: a finished run must
    # have cleared the whole graph
    for stem in range(4):
        for cyc in range(1, 6):
            a = gen_lasso(stem, cyc, False)
            for n in (1, 2, 4):
                store = ColorStore(a.num_states, a.accepting)
                v = lndfs(a, n, 13, store=store)
                assert not v.cycle_found
                assert all(store.get_flag(s, RED) for s in range(a.num_states))


def test_counters_drain_to_zero():
    for seed in range(10):
        a = gen_random(50, 2.0, 0.15, seed)
        store = ColorStore(a.num_states, a.accepting)
        v = lndfs(a, 4, seed, store=store)
        if not v.cycle_found:
            assert all(store.counter_value(s) == 0 for s in a.accepting)


def test_work_bound_two_visits_per_state_per_worker():
    for seed in range(10):
        a = gen_random(60, 2.5, 0.3, seed)
        for n in (1, 2, 4, 8):
            v = lndfs(a, n, seed)
            assert v.stats.total_expansions <= 2 * n * a.num_states
            for w in v.stats.workers:
                assert w.blue_expansions + w.red_expansions <= 2 * a.num_states


def test_wait_counter_is_recorded():
    v = lndfs(gen_random(80, 2.0, 0.2, 4), 8, 4)
    assert v.stats.waits >= 0  # races decide whether any wait happens
