"""The SCC decision procedure, cross-checked by brute-force cycle search.

Everything else in the suite trusts this module, so it gets two
independent checks: a cycle enumerator for tiny graphs and structural
properties of the component decomposition.
"""

from hypothesis import given

from cyclone import (
    BuchiAutomaton,
    Lasso,
    gen_lasso,
    gen_needle,
    has_accepting_cycle,
    sccs_from_init,
    validate_lasso,
    witness_lasso,
)
from cyclone.paths import reachable_from
from strategies import ReadCounted, automata, fan_into_chain


def _enumerate_accepting_cycle(aut: BuchiAutomaton, max_states: int = 8) -> bool:
    """Second, independent oracle for tiny graphs: brute-force cycle search.

    Enumerates simple paths from every reachable accepting state and asks
    whether any returns to its origin.  Exponential, so it refuses graphs
    larger than max_states; use it to cross-check the SCC decision.
    """
    if aut.num_states > max_states:
        raise ValueError(f"brute-force oracle only handles <= {max_states} states")
    reachable = {aut.init}
    frontier = [aut.init]
    while frontier:
        s = frontier.pop()
        for t in aut.edges[s]:
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)

    def closes(origin: int, s: int, seen: frozenset[int]) -> bool:
        for t in aut.edges[s]:
            if t == origin:
                return True
            if t not in seen and closes(origin, t, seen | {t}):
                return True
        return False

    return any(
        closes(a, a, frozenset({a}))
        for a in sorted(aut.accepting)
        if a in reachable
    )


@given(automata(max_states=8))
def test_scc_decision_matches_brute_force(a):
    assert has_accepting_cycle(a) == _enumerate_accepting_cycle(a)


@given(automata(max_states=8))
def test_components_partition_reachable_states(a):
    comps = sccs_from_init(a)
    seen = [s for c in comps for s in c]
    assert sorted(seen) == sorted(set(seen)), "no state in two components"
    assert set(seen) == reachable_from(a, [a.init])


@given(automata(max_states=8))
def test_components_are_mutually_reachable(a):
    for comp in sccs_from_init(a):
        members = set(comp)
        for s in comp:
            assert members <= reachable_from(a, [s]) | {s}


@given(automata(max_states=8))
def test_witness_agrees_with_decision(a):
    w = witness_lasso(a)
    if has_accepting_cycle(a):
        assert w is not None
        assert validate_lasso(a, w)
    else:
        assert w is None


def _read_counted(a: BuchiAutomaton) -> tuple[BuchiAutomaton, ReadCounted]:
    edges = ReadCounted(a.edges)
    return BuchiAutomaton(a.num_states, a.init, a.accepting, edges), edges


def test_decision_stops_at_the_first_accepting_component():
    # seed 3 puts the needle on chain 7 of 16, so Tarjan closes the
    # accepting 2-cycle after reading the lists of init, chains 0-7 and
    # the cycle, and never reads chains 8-15
    a = gen_needle(16, 500, 3)
    full, full_edges = _read_counted(a)
    sccs_from_init(full)
    assert full_edges.reads == a.num_states  # every state is reachable
    early, early_edges = _read_counted(a)
    assert has_accepting_cycle(early)
    assert early_edges.reads == 1 + 8 * 500 + 2


def test_witness_reads_the_graph_a_bounded_number_of_times():
    # the decision and the stem's tree read each list once; a walk back
    # from each of init's 300 other successors would read the 10,000-state
    # chain 300 times before the cycle walk tried init's self-loop
    a = fan_into_chain(300, 10_000)
    counted, edges = _read_counted(a)
    w = witness_lasso(counted)
    assert (w.stem, w.cycle) == ((0,), (0,))
    reads = edges.reads  # a bare assert on edges would print all 10,301 lists
    assert reads < 3 * a.num_states


def test_single_accepting_self_loop():
    a = BuchiAutomaton(1, 0, frozenset({0}), [[0]])
    assert has_accepting_cycle(a)
    w = witness_lasso(a)
    assert w.stem == (0,)
    assert w.cycle == (0,)


def test_hand_checkable_triangle():
    # 0 -> 1 -> 2 -> 1 with 1 accepting: the cycle is exactly [1, 2]
    a = BuchiAutomaton(3, 0, frozenset({1}), [[1], [2], [1]])
    w = witness_lasso(a)
    assert w is not None
    assert w.cycle == (1, 2)
    assert validate_lasso(a, w)


def test_unreachable_accepting_cycle_does_not_count():
    # 0 is a dead end; the accepting loop on 1 hangs off nothing
    a = BuchiAutomaton(2, 0, frozenset({1}), [[], [1]])
    assert not has_accepting_cycle(a)


def test_non_accepting_cycle_does_not_count():
    a = gen_lasso(2, 3, False)
    assert not has_accepting_cycle(a)


def test_validate_lasso_rejects_malformed():
    a = gen_lasso(2, 3, True)
    good = witness_lasso(a)
    assert validate_lasso(a, good)
    assert not validate_lasso(a, Lasso((), (2, 3, 4), 0))
    assert not validate_lasso(a, Lasso((1, 2), (2, 3, 4), 0))  # stem must start at init
    assert not validate_lasso(a, Lasso((0, 2), (2, 3, 4), 0))  # 0 -> 2 is not an edge
    assert not validate_lasso(a, Lasso((0, 1), (2, 3, 4), 0))  # stem stops one edge short of the cycle
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3), 0))  # 3 -> 2 does not close
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 4), 0))  # 4 -> 2 closes, but 2 -> 4 is not an edge
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, 4), 1))  # 3 is not accepting
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, 4), 7))  # index out of range


def test_validate_lasso_rejects_ids_that_are_not_states():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 2 with 2 accepting: -1 would read state 4's
    # list from the end of aut.edges, and that list closes the cycle
    a = gen_lasso(2, 3, True)
    assert validate_lasso(a, Lasso((0, 1, 2), (2, 3, 4), 0))
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, -1), 0))
    assert not validate_lasso(a, Lasso((0, 1, -3), (-3, 3, 4), 0))  # -3 for 2
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, 5), 0))
    assert not validate_lasso(a, Lasso((-5,), (-5,), 0))  # -5 for init
