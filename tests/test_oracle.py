"""The SCC decision procedure, cross-checked by brute-force cycle search.

Everything else in the suite trusts this module, so it gets two
independent checks: a cycle enumerator for tiny graphs and structural
properties of the component decomposition.
"""

from hypothesis import given

from cyclone import (
    BuchiAutomaton,
    Lasso,
    enumerate_accepting_cycle,
    gen_lasso,
    has_accepting_cycle,
    sccs_from_init,
    validate_lasso,
    witness_lasso,
)
from cyclone.paths import reachable_from
from strategies import automata


@given(automata(max_states=8))
def test_scc_decision_matches_brute_force(a):
    assert has_accepting_cycle(a) == enumerate_accepting_cycle(a)


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
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, 4), 1))  # 3 is not accepting
    assert not validate_lasso(a, Lasso((0, 1, 2), (2, 3, 4), 7))  # index out of range
