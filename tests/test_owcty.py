"""Propagation pass and elimination fixpoint."""

from time import perf_counter

import pytest
from hypothesis import given

import cyclone.owcty_map
from cyclone import (
    BuchiAutomaton,
    Lasso,
    WatchdogTimeout,
    gen_lasso,
    gen_needle,
    gen_random,
    has_accepting_cycle,
    map_pass,
    owcty,
    validate_lasso,
)
from cyclone.bench import execute
from cyclone.paths import bfs_tree, cycle_through, reachable_from, tree_path
from strategies import ReadCounted, automata, bfs_path, fan_into_chain, layered, onion


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
    # the first read of the clock follows the reachable closure, so on this
    # graph it raises before the propagation and the fixpoint's first round
    a = gen_lasso(2, 3, False)
    walks = _count_calls(monkeypatch, cyclone.owcty_map, "bfs_tree")
    reads = _count_calls(monkeypatch, cyclone.owcty_map, "check_deadline")
    with pytest.raises(WatchdogTimeout):
        owcty(a, deadline=perf_counter() - 1)
    assert len(walks) == 1  # the propagation's reachable closure only
    assert len(reads) == 1  # the read after the reach walk raised
    assert owcty(a).stats.extras["owcty_rounds"] == 2


def test_no_walk_of_the_reachable_graph_goes_without_a_clock_read(monkeypatch):
    # no accepting state: the propagation never pops, so it never reads the
    # clock, and the reach walk and the predecessor pass each read every
    # reachable list before round 1 starts
    a = gen_random(3000, 2.0, 0.0, 1)
    reach = len(map_pass(a).reach)
    assert reach == 2390
    edges = ReadCounted(a.edges)
    marks = []
    real = cyclone.owcty_map.check_deadline

    def marking(deadline):
        marks.append(edges.reads)
        real(deadline)

    monkeypatch.setattr(cyclone.owcty_map, "check_deadline", marking)
    v = owcty(BuchiAutomaton(a.num_states, a.init, a.accepting, edges))
    assert v.lasso is None and v.stats.extras["owcty_rounds"] == 1
    # reads after the reach walk and after the predecessor pass, then one
    # before each phase of round 1; the last gap is round 1's strip
    gaps = [y - x for x, y in zip([0, *marks], [*marks, edges.reads])]
    assert max(gaps) <= reach
    assert len(marks) == 4


def test_map_hit_walks_the_reachable_graph_once():
    # the stem comes off the closure's breadth-first tree: no second walk
    # from init, which on this needle would read all 64,003 lists again
    a = gen_needle(64, 1000, 0)
    edges = ReadCounted(a.edges)
    counted = BuchiAutomaton(a.num_states, a.init, a.accepting, edges)
    v = owcty(counted)
    assert v.stats.extras["map_hits"] == 1
    reads = edges.reads  # a bare assert on edges would print all 64,003 lists
    assert a.num_states <= reads < a.num_states + 100
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


def _reference_owcty(a):
    """(rounds, expansions, lasso) of owcty with one full closure per round.

    The plain fixpoint: each round walks everything its accepting
    candidates reach, takes away the edges of the candidates that walk
    missed, and strips from the kept ones.
    """
    mr = map_pass(a)
    pops = mr.pops
    if mr.lasso is not None:
        return 0, pops, mr.lasso
    edges = a.edges
    candidates = list(mr.reach)
    indeg = [0] * a.num_states
    for s in candidates:
        for t in edges[s]:
            indeg[t] += 1
    rounds = 0
    while candidates:
        rounds += 1
        kept, parent = bfs_tree(a, [s for s in candidates if a.accept_mask[s]])
        pops += len(kept)
        for s in candidates:
            if parent[s] is None:
                for t in edges[s]:
                    indeg[t] -= 1
        dead = [s for s in kept if not indeg[s]]
        for s in dead:
            for t in edges[s]:
                indeg[t] -= 1
                if not indeg[t]:
                    dead.append(t)
        pops += len(dead)
        if not dead and len(kept) == len(candidates):
            break
        candidates = [s for s in kept if indeg[s]]
    for s in sorted(s for s in candidates if a.accept_mask[s]):
        cycle = cycle_through(a, s)
        if cycle is not None:
            return rounds, pops, Lasso(tuple(tree_path(mr.parent, s)), tuple(cycle), 0)
    return rounds, pops, None


def _matches_reference(a):
    v = owcty(a)
    got = (v.stats.extras["owcty_rounds"], v.stats.total_expansions, v.lasso)
    assert got == _reference_owcty(a)
    return v


@given(automata(max_states=10, max_degree=3))
def test_fixpoint_matches_a_closure_per_round(a):
    _matches_reference(a)


@pytest.mark.parametrize("layers", [1, 2, 3, 40])
def test_fixpoint_matches_a_closure_per_round_on_onions(layers):
    v = _matches_reference(onion(layers))
    assert v.stats.extras["owcty_rounds"] == layers + 1


@pytest.mark.parametrize("back_edge", [False, True])
def test_fixpoint_matches_a_closure_per_round_on_layered_graphs(back_edge):
    v = _matches_reference(layered(903, back_edge, 12, 60))
    assert v.stats.extras == {"owcty_rounds": 11 if back_edge else 12, "map_hits": 0}
    assert v.cycle_found == back_edge


def test_fixpoint_reads_each_successor_list_a_bounded_number_of_times():
    # one closure per round would read 245,799 lists here: the rounds peel
    # one ring each, and each closure walks all the rings left
    a = onion(400)
    edges = ReadCounted(a.edges)
    v = owcty(BuchiAutomaton(a.num_states, a.init, a.accepting, edges))
    assert v.stats.extras["owcty_rounds"] == 401
    assert v.stats.total_expansions == 243_799
    reads = edges.reads  # a bare assert on edges would print all 1,200 lists
    assert reads <= 10 * a.num_states


def test_a_deep_onion_takes_linear_time():
    # 4,000 rings: 24 million expansions, one per state kept or stripped in
    # a round, which a closure per round took seconds to walk
    t0 = perf_counter()
    v = owcty(onion(4000))
    assert perf_counter() - t0 < 2.0
    assert v.lasso is None
    assert v.stats.extras["owcty_rounds"] == 4001
    assert v.stats.total_expansions == 24_037_999


def test_a_lasso_cycle_stays_inside_the_deadline():
    # the propagation meets init's self-loop on its first pop; a walk back
    # from each of its 500 other successors would read the 10,000-state
    # chain 500 times after the last read of the clock
    t0 = perf_counter()
    v = execute(fan_into_chain(500, 10_000), "owcty", timeout=0.5)
    assert perf_counter() - t0 < 0.5
    assert (v.lasso.stem, v.lasso.cycle) == ((0,), (0,))
