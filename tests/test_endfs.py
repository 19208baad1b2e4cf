"""Optimistic shared-color detector with sequential repair."""

from hypothesis import given, settings
import hypothesis.strategies as st

from cyclone import (
    BuchiAutomaton,
    ColorStore,
    endfs,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    ndfs,
    nmc_ndfs,
    validate_lasso,
)
from cyclone.colors import DANGEROUS
from strategies import automata


def test_single_worker_never_repairs():
    # alone, red searches start in clean post order, so no accepting
    # state can be met half-done and nothing is ever dangerous
    for seed in range(25):
        a = gen_random(70, 2.0, 0.2, seed)
        v = endfs(a, 1, seed)
        assert v.stats.extras["dangerous_count"] == 0
        assert v.stats.extras["repair_states"] == 0
        assert v.stats.repair_expansions == 0
        assert v.cycle_found == ndfs(a).cycle_found


@settings(max_examples=25)
@given(automata(max_states=8), st.integers(0, 1000), st.integers(1, 8))
def test_verdict_matches_oracle(a, seed, n):
    v = endfs(a, n, seed)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


def test_multi_worker_verdicts_on_mid_size_graphs():
    for seed in range(15):
        a = gen_random(120, 2.0, 0.1, seed)
        want = has_accepting_cycle(a)
        for n in (2, 4, 8):
            v = endfs(a, n, seed)
            assert v.cycle_found == want, (seed, n)


def test_per_worker_work_bound_four_visits():
    # blue, red, and a repair pass of at most two more visits per state:
    # persistent per-worker repair colors keep the sum under 4 per state
    for seed in range(10):
        a = gen_random(60, 2.5, 0.3, seed)
        for n in (1, 2, 4, 8):
            v = endfs(a, n, seed)
            for w in v.stats.workers:
                own = w.blue_expansions + w.red_expansions + w.repair_expansions
                assert own <= 4 * a.num_states


def test_store_ends_fully_settled_when_no_cycle():
    a = gen_lasso(3, 4, False)
    store = ColorStore(a.num_states, a.accepting)
    v = endfs(a, 4, 3, store=store)
    assert not v.cycle_found
    # every reachable state got a blue mark
    from cyclone.colors import BLUE

    assert all(store.plane(BLUE))


def test_extras_always_present():
    v = endfs(gen_lasso(1, 2, True), 2, 0)
    assert set(v.stats.extras) >= {"dangerous_count", "repair_states"}
    assert v.stats.extras["dangerous_count"] >= 0


def test_a_repair_closed_by_the_verdict_still_counts():
    # 0 -> 1 (accepting) -> a 200-state chain, and 0 -> a 1000-state chain
    # -> 1202 (accepting, self loop).  With 1 marked dangerous beforehand,
    # worker 0 takes the short chain and is repairing 1 when worker 1,
    # down the long one, closes the cycle and the run closes worker 0.
    n = 1203
    edges = [[s + 1] for s in range(n)]
    edges[0] = [1, 202]
    edges[201] = []
    edges[n - 1] = [n - 1]
    a = BuchiAutomaton(n, 0, frozenset({1, n - 1}), edges)
    for detector in (endfs, nmc_ndfs):
        store = ColorStore(n, a.accepting)
        store.plane(DANGEROUS)[1] = 1
        v = detector(a, 2, 0, store=store)
        assert v.winner == 1 and validate_lasso(a, v.lasso)
        w0 = v.stats.workers[0]
        assert (w0.blue_expansions, w0.red_expansions) == (202, 201)
        assert w0.repair_expansions > 0, detector.__name__
