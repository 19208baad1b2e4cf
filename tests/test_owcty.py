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
from cyclone.owcty_map import MapResult
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


def _reference_map_pass(aut, reads=None):
    """(MapResult, fresh pops) of the propagation that reads every pop's list.

    The loop as it stood before clean pops were skipped: it counts each
    pop and tests for a clock read at each.  A fresh pop is one whose
    state has risen since its previous pop, or is popped first.  reads,
    when given, collects for each clock read the fresh pops before it.
    """
    amask = aut.accept_mask
    edges = aut.edges
    order, parent = bfs_tree(aut, (aut.init,))
    reach = set(order)
    table = [0] * aut.num_states
    queue = [s for s in reach if amask[s]]
    last = {}  # each popped state's entry at its previous pop
    fresh = 0
    pops = len(reach)
    for u in queue:
        pops += 1
        if not pops & 1023 and reads is not None:
            reads.append(fresh)
        fresh += last.get(u) != table[u]
        last[u] = table[u]
        val = u + 1 if amask[u] and u + 1 > table[u] else table[u]
        for t in edges[u]:
            if val > table[t]:
                if amask[t] and val == t + 1:
                    lasso = Lasso(tuple(tree_path(parent, t)), tuple(cycle_through(aut, t)), 0)
                    return MapResult(lasso, table, pops, reach, parent), fresh
                table[t] = val
                queue.append(t)
    return MapResult(None, table, pops, reach, parent), fresh


def _accepting_chain(n):
    # 0 -> 1 -> ... -> n-1, all accepting: every seed pop but the first
    # meets a successor its predecessor raised, and the n - 1 appended
    # entries are clean when popped
    return BuchiAutomaton(n, 0, frozenset(range(n)), [[s + 1] for s in range(n - 1)] + [[]])


def _sparse_randoms():
    # reach is a small share of the ids, so the set's iteration order is
    # not ascending, and so neither is the queue's seeding
    auts = [gen_random(n, degree, 0.3, seed) for n, degree in [(3000, 1.0), (2000, 1.2)] for seed in range(6)]
    assert all(list(r) != sorted(r) for r in (map_pass(a).reach for a in auts))
    return auts


_BIG_INPUTS = {
    "layered": layered(1, False, 40, 200),
    "layered-back-edge": layered(2, True, 40, 200),
    "onion-40": onion(40),
    **{f"chain-{n}": _accepting_chain(n) for n in (1022, 1023, 1024, 1025, 2047)},
}


def _same_pass(a):
    got = map_pass(a)
    want, _ = _reference_map_pass(a)
    assert (got.lasso, got.table, got.pops, got.reach, got.parent) == (
        want.lasso, want.table, want.pops, want.reach, want.parent)
    return got


@given(automata(max_states=12, max_degree=3))
def test_propagation_matches_the_pop_by_pop_loop(a):
    _same_pass(a)


def test_propagation_matches_the_pop_by_pop_loop_on_sparse_reach():
    found = [_same_pass(a).lasso is not None for a in _sparse_randoms()]
    assert any(found) and not all(found)


def _clock_reads(monkeypatch, a):
    """(MapResult, reads) of map_pass on a, with a successor list read counter.

    reads holds, for each clock read of the propagation, the successor
    lists the propagation read before it.
    """
    edges = ReadCounted(a.edges)
    seen = []
    monkeypatch.setattr(cyclone.owcty_map, "check_deadline", lambda deadline: seen.append(edges.reads))
    mr = map_pass(BuchiAutomaton(a.num_states, a.init, a.accepting, edges))
    walk = seen.pop(0)  # the read after the reach walk
    return mr, [r - walk for r in seen]


def _fan_out(m, pad):
    # 0 -> accepting 1..m, each -> its own dead end m+1..2m, and pad more
    # dead ends from 0: every one of the 2m pops is fresh and reads a list
    edges = [list(range(1, m + 1)) + list(range(2 * m + 1, 2 * m + 1 + pad))]
    edges += [[m + s] for s in range(1, m + 1)] + [[] for _ in range(m + pad)]
    return BuchiAutomaton(2 * m + 1 + pad, 0, frozenset(range(1, m + 1)), edges)


@pytest.mark.parametrize("m, pad, want", [
    (511, 0, [0]),  # reach 1,023: read before the first pop
    (511, 1, []),  # reach 1,024: 1,022 pops, all before pop 2,048
    (511, 2, []),  # the last pop is 2,047: no read with no pop after it
    (511, 3, [1021]),  # the last pop is 2,048
    (1500, 0, [70, 1094, 2118]),  # pops 3,002 to 6,001
])
def test_the_clock_is_read_before_every_1024th_pop(monkeypatch, m, pad, want):
    mr, got = _clock_reads(monkeypatch, _fan_out(m, pad))
    reach = len(mr.reach)
    assert (reach, mr.pops - reach, mr.lasso) == (2 * m + 1 + pad, 2 * m, None)
    # one list per pop: the lists read before a read number the pops
    assert want == [p - 1 - reach for p in range(reach + 1, mr.pops + 1) if not p % 1024]
    assert got == want


@pytest.mark.parametrize("name", _BIG_INPUTS)
def test_large_propagations_match_the_pop_by_pop_loop_and_its_clock(monkeypatch, name):
    a = _BIG_INPUTS[name]
    want = []
    mr, _ = _reference_map_pass(a, want)
    _same_pass(a)
    _, got = _clock_reads(monkeypatch, a)
    assert got == want
    assert len(got) == mr.pops // 1024 - len(mr.reach) // 1024


def test_the_propagation_reads_one_list_per_fresh_pop():
    # the pop-by-pop loop reads a list at each of its 41,780 pops; the
    # 12,611 pops of a state that has not risen since its last pop raise
    # nothing
    a = layered(1, False, 40, 200)
    want, fresh = _reference_map_pass(a)
    assert want.lasso is None
    assert (want.pops - len(want.reach), fresh) == (41_780, 29_169)
    walk = ReadCounted(a.edges)
    bfs_tree(BuchiAutomaton(a.num_states, a.init, a.accepting, walk), (a.init,))
    edges = ReadCounted(a.edges)
    mr = map_pass(BuchiAutomaton(a.num_states, a.init, a.accepting, edges))
    reads = edges.reads - walk.reads
    assert mr.pops == want.pops
    assert reads == fresh
    assert reads < 0.75 * (want.pops - len(want.reach))


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
