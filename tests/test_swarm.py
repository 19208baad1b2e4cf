"""Racing isolated workers: degenerate equality, claims, shared bias."""

from time import perf_counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclone import (
    SuccessorOrder,
    WatchdogTimeout,
    WorkerStats,
    endfs,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    lndfs,
    ndfs,
    nmc_ndfs,
    swarm_ndfs,
    validate_lasso,
)
from cyclone import search
from strategies import automata


def test_one_worker_is_the_sequential_detector():
    """Same seed, same path, same counters; only wall time may differ."""
    for seed in (0, 5, 21):
        a = gen_random(60, 2.5, 0.25, seed)
        v1 = ndfs(a, SuccessorOrder(0, seed))
        v2 = swarm_ndfs(a, 1, seed)
        assert v1.lasso == v2.lasso
        w1, w2 = v1.stats.workers[0], v2.stats.workers[0]
        assert w1.blue_expansions == w2.blue_expansions
        assert w1.red_expansions == w2.red_expansions
        assert w1.max_stack_depth == w2.max_stack_depth


def test_winner_owns_the_lasso():
    a = gen_random(100, 2.0, 0.3, 3)
    assert has_accepting_cycle(a)
    v = swarm_ndfs(a, 8, 3)
    assert v.cycle_found
    assert v.winner is not None and 0 <= v.winner < 8
    assert validate_lasso(a, v.lasso)
    # the claimed worker found it, so it expanded at least the stem
    assert v.stats.workers[v.winner].blue_expansions >= len(set(v.lasso.stem))


def test_no_cycle_needs_every_worker_to_finish():
    a = gen_lasso(4, 4, False)
    v = swarm_ndfs(a, 4, 9)
    assert not v.cycle_found
    assert v.winner is None
    for w in v.stats.workers:
        # isolated workers each cover the whole reachable graph
        assert w.blue_expansions == a.num_states


def test_past_deadline_raises_before_any_expansion():
    a = gen_lasso(4, 4, False)
    with pytest.raises(WatchdogTimeout):
        swarm_ndfs(a, 2, 0, deadline=perf_counter() - 1)
    stats = []

    def body(w, ws, racing):
        assert racing
        stats.append(ws)
        return search.nested_search(a, ws, keys=search.worker_keys(w, 0), racing=racing)

    with pytest.raises(WatchdogTimeout):
        search.race(2, body, deadline=perf_counter() - 1)
    assert [ws.blue_expansions for ws in stats] == [0, 0]  # the clock is read before round one


def test_worker_error_propagates():
    turns = [0] * 4
    closed = []

    def body(w, ws, racing):
        assert racing
        try:
            # every worker takes a turn before worker 2 fails in its second
            turns[w] += 1
            yield
            if w == 2:
                raise RuntimeError("boom")
            while True:
                turns[w] += 1
                yield
        except GeneratorExit:
            closed.append(w)
            raise

    # the traceback held here keeps race's frame, and the searches in it,
    # alive: only race itself can have closed them
    with pytest.raises(RuntimeError, match="boom") as _err:
        search.race(4, body)
    # worker 3 never got its second turn against the failed run
    assert turns == [2, 2, 1, 1]
    assert closed == [0, 1, 3]


def test_round_one_winner_leaves_unstarted_losers_at_zero():
    # worker 0 closes the cycle within its first turn, so the others are
    # closed before they ever ran
    a = gen_lasso(2, 3, True)
    for detector in (swarm_ndfs, lndfs, endfs, nmc_ndfs):
        v = detector(a, 4, 0)
        assert v.winner == 0 and validate_lasso(a, v.lasso)
        assert v.stats.workers[0].blue_expansions > 0
        assert v.stats.workers[1:] == [WorkerStats()] * 3, detector.__name__


@settings(max_examples=25)
@given(automata(max_states=8), st.integers(0, 1000), st.integers(2, 8))
def test_verdict_matches_oracle(a, seed, n):
    v = swarm_ndfs(a, n, seed)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


@settings(max_examples=25)
@given(automata(max_states=8), st.integers(0, 1000))
def test_heuristic_does_not_change_verdicts(a, seed):
    v = swarm_ndfs(a, 4, seed, heuristic=True)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)


def test_heuristic_shares_discoveries():
    # width-8 comb: with the shared bitset, workers spread over distinct
    # teeth instead of piling onto the same canonical order
    from cyclone import gen_needle

    a = gen_needle(8, 200, 5)
    plain = biased = 0
    for seed in range(6):
        for heuristic in (False, True):
            v = swarm_ndfs(a, 8, seed, heuristic=heuristic)
            assert v.cycle_found
            if heuristic:
                biased += v.stats.total_expansions
            else:
                plain += v.stats.total_expansions
    assert biased <= plain


def test_only_racing_workers_yield():
    a = gen_random(2000, 2.0, 0.0, 1)
    ws = WorkerStats()
    lone = search.nested_search(a, ws, keys=search.worker_keys(0, 0))
    with pytest.raises(StopIteration) as done:
        next(lone)
    assert done.value.value is None and ws.blue_expansions > 64
    ws = WorkerStats()
    racing = search.nested_search(a, ws, keys=search.worker_keys(0, 0), racing=True)
    assert next(racing) is None
    assert ws.blue_expansions == 0  # counted when the search ends
    racing.close()
    assert 0 < ws.blue_expansions <= 64  # the root and at most 63 steps
