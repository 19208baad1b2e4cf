"""Propagation pass and elimination fixpoint."""

from time import perf_counter

import pytest
from hypothesis import given

import cyclone.owcty_map
import cyclone.paths
from cyclone import (
    BuchiAutomaton,
    WatchdogTimeout,
    gen_lasso,
    gen_needle,
    gen_random,
    has_accepting_cycle,
    map_pass,
    owcty,
    validate_lasso,
)
from cyclone.paths import bfs_path, reachable_from
from strategies import ReadCounted, automata


def test_propagation_finds_accepting_cycle_directly():
    v = owcty(gen_lasso(2, 3, True))
    assert v.cycle_found
    assert v.stats.extras["map_hits"] == 1
    assert v.stats.extras["owcty_rounds"] == 0


def test_quiet_propagation_falls_through_to_elimination():
    v = owcty(gen_lasso(2, 3, False))
    assert not v.cycle_found
    assert v.stats.extras["map_hits"] == 0
    assert v.stats.extras["owcty_rounds"] == 2


def test_expansions_count_the_reachable_closure():
    # decided in the propagation pass after a couple of pops, but the
    # closure it walked first covers every reachable state
    a = gen_needle(64, 1000, 0)
    reach = reachable_from(a, [a.init])
    mr = map_pass(a)
    assert mr.reach == reach
    v = owcty(a)
    assert v.stats.extras["map_hits"] == 1
    assert v.stats.total_expansions >= len(reach)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_past_deadline_raises_before_the_first_fixpoint_round(monkeypatch):
    # the propagation reads the clock only every 1,024 pops, so on this
    # graph the first read comes before the fixpoint's first closure
    a = gen_lasso(2, 3, False)
    walks = _count_calls(monkeypatch, cyclone.owcty_map, "bfs_tree")
    with pytest.raises(WatchdogTimeout):
        owcty(a, deadline=perf_counter() - 1)
    assert len(walks) == 1  # the propagation's reachable closure only
    assert owcty(a).stats.extras["owcty_rounds"] == 2


def test_map_hit_walks_the_reachable_graph_once(monkeypatch):
    # the stem comes off the closure's breadth-first tree: no second walk
    # from init, which on this needle would read all 64,003 lists again
    a = gen_needle(64, 1000, 0)
    edges = ReadCounted(a.edges)
    counted = BuchiAutomaton(a.num_states, a.init, a.accepting, edges)
    paths = _count_calls(monkeypatch, cyclone.paths, "bfs_path")
    v = owcty(counted)
    assert v.stats.extras["map_hits"] == 1
    reads = edges.reads  # a bare assert on edges would print all 64,003 lists
    assert a.num_states <= reads < a.num_states + 100
    assert [p for p in paths if p[1] == a.init] == []  # args: aut, src, target
    assert v.lasso.stem == tuple(bfs_path(a, a.init, v.lasso.stem[-1]))


def test_propagation_table_frozen():
    # the accepting init (id 1) reaches everything; nothing reaches it
    mr = map_pass(gen_lasso(2, 3, False))
    assert mr.lasso is None
    assert mr.table == [0, 1, 1, 1, 1]


def test_masked_cycle_found_by_elimination_only():
    # accepting 3 (id 4) floods the cycle {0,1}, masking 1's own id, so
    # the propagation pass is blind here by construction
    a = BuchiAutomaton(4, 3, frozenset({1, 3}), [[1], [0], [], [0]])
    assert has_accepting_cycle(a)
    mr = map_pass(a)
    assert mr.lasso is None
    v = owcty(a)
    assert v.cycle_found
    assert v.stats.extras["map_hits"] == 0
    assert validate_lasso(a, v.lasso)


@given(automata(max_states=8))
def test_verdict_matches_oracle(a):
    v = owcty(a)
    assert v.cycle_found == has_accepting_cycle(a)
    if v.lasso is not None:
        assert validate_lasso(a, v.lasso)
        assert v.lasso.stem == tuple(bfs_path(a, a.init, v.lasso.stem[-1]))


@given(automata(max_states=8))
def test_propagation_hit_is_always_sound(a):
    mr = map_pass(a)
    if mr.lasso is not None:
        assert has_accepting_cycle(a)
        assert validate_lasso(a, mr.lasso)
        assert mr.lasso.stem == tuple(bfs_path(a, a.init, mr.lasso.stem[-1]))


@given(automata(max_states=8))
def test_round_count_bounded_by_states(a):
    v = owcty(a)
    assert v.stats.extras["owcty_rounds"] <= a.num_states


def test_rounds_on_mid_size_randoms():
    for seed in range(30):
        a = gen_random(100, 2.0, 0.1, seed)
        v = owcty(a)
        assert v.cycle_found == has_accepting_cycle(a)
        assert v.stats.extras["owcty_rounds"] <= a.num_states
        if v.lasso is not None:
            assert v.lasso.stem == tuple(bfs_path(a, a.init, v.lasso.stem[-1]))
