"""Racing isolated workers: degenerate equality, claims, shared bias."""

import importlib
import statistics

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cyclone import (
    SuccessorOrder,
    TerminationFlag,
    gen_lasso,
    gen_random,
    has_accepting_cycle,
    ndfs,
    run_workers,
    swarm_ndfs,
    validate_lasso,
)
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


def test_external_termination_flag_short_circuits():
    term = TerminationFlag()
    term.set()
    a = gen_lasso(4, 4, False)
    v = swarm_ndfs(a, 2, 0, term=term)
    assert not v.cycle_found
    assert v.stats.total_expansions <= 2  # both workers stop at the first check


def test_worker_error_propagates():
    term = TerminationFlag()

    def body(w):
        if w == 2:
            raise RuntimeError("boom")
        term  # other workers just return

    with pytest.raises(RuntimeError, match="boom"):
        run_workers(4, body, term)
    assert term.is_set()


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

    # one 8-thread race swings several-fold between runs, so compare medians
    a = gen_needle(8, 200, 5)
    plain, biased = [], []
    for _ in range(7):
        for heuristic, totals in ((False, plain), (True, biased)):
            v = swarm_ndfs(a, 8, 5, heuristic=heuristic)
            assert v.cycle_found
            totals.append(v.stats.total_expansions)
    assert statistics.median(biased) <= statistics.median(plain) * 1.5


def test_only_racing_workers_yield(monkeypatch):
    # the package attribute cyclone.ndfs is the function, not the module
    engine = importlib.import_module("cyclone.ndfs")
    calls: list[None] = []
    monkeypatch.setattr(engine, "_yield", lambda: calls.append(None))
    a = gen_random(2000, 2.0, 0.0, 1)
    lone = swarm_ndfs(a, 1, 0)
    assert not lone.cycle_found and lone.stats.total_expansions > 64
    assert calls == []
    assert not swarm_ndfs(a, 2, 0).cycle_found
    assert len(calls) >= 1
