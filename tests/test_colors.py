"""Shared color table: flag planes, counters, the engine's zero-wait protocol and the race."""

import pytest

from cyclone import BuchiAutomaton, ColorStore, Lasso, UnderflowFault, WorkerStats
from cyclone.colors import BLUE, DANGEROUS, FLAGS, RED, SAFE
from cyclone.search import nested_search, race


def test_flags_are_independent_bits():
    store = ColorStore(3)
    store.plane(RED)[1] = 1
    store.plane(DANGEROUS)[1] = 1
    assert store.plane(RED)[1]
    assert store.plane(DANGEROUS)[1]
    assert not store.plane(BLUE)[1]
    assert not any(store.plane(bit)[s] for s in (0, 2) for bit in FLAGS)


def test_counter_underflow_faults():
    store = ColorStore(2, accepting=[1])
    with pytest.raises(UnderflowFault):
        store.counter_adjust(1, -1)


def _waiting_search():
    # 0 is accepting and leads into the non-accepting cycle 1 2, so the
    # allred search backtracks 0 with a successor unblocked and roots a red
    # search there.  A sibling's red search rooted at 0 is in flight, so
    # at 0's red backtrack the search must wait before it publishes red.
    a = BuchiAutomaton(3, 0, frozenset({0}), [[1], [2], [1]])
    store = ColorStore(a.num_states, a.accepting)
    store.counter_adjust(0, 1)
    ws = WorkerStats()
    return store, ws, nested_search(a, ws, store=store, block=store.plane(RED), allred=True)


def test_counter_wait_yields_until_the_counter_drains():
    store, ws, search = _waiting_search()
    for _ in range(3):
        assert next(search) is None
        assert store.counter_value(0) == 1
        assert not store.plane(RED)[0]
    assert all(store.plane(RED)[s] for s in (1, 2))  # the red search is done
    store.counter_adjust(0, -1)
    with pytest.raises(StopIteration) as done:
        next(search)
    assert done.value.value is None
    assert store.plane(RED)[0]
    assert ws.waits == 1 and (ws.blue_expansions, ws.red_expansions) == (3, 3)


def test_counter_wait_stops_on_termination():
    # the run ends by closing the search where it waits
    store, ws, search = _waiting_search()
    assert next(search) is None
    search.close()
    assert not store.plane(RED)[0]
    assert ws.waits == 1 and (ws.blue_expansions, ws.red_expansions) == (3, 3)


def test_dump_csv_shape():
    store = ColorStore(3, accepting=[1])
    store.plane(RED)[0] = 1
    store.plane(BLUE)[2] = 1
    store.plane(SAFE)[2] = 1
    store.counter_adjust(1, 1)
    lines = store.dump_csv().splitlines()
    assert lines[0] == "state,red,blue,dangerous,safe,count"
    assert lines[1] == "0,1,0,0,0,0"
    assert lines[2] == "1,0,0,0,0,1"
    assert lines[3] == "2,0,1,0,1,0"


def test_race_lower_worker_wins_and_closes_the_rest():
    # both workers close a lasso in the same round; worker 0 takes its turn
    # first, so it wins, and worker 1's search is closed where it yielded,
    # booking its counters as the engine does, before the verdict is built
    def body(w, ws, racing):
        assert racing
        steps = 0
        try:
            steps += 1
            yield
            steps += 1
            return Lasso((w,), (w,), 0)
        finally:
            ws.blue_expansions += steps

    v = race(2, body)
    assert (v.winner, v.lasso) == (0, Lasso((0,), (0,), 0))
    assert [w.blue_expansions for w in v.stats.workers] == [2, 1]


def test_counters_exist_only_for_accepting_states():
    store = ColorStore(3, accepting=[0, 2])
    assert [store.counter_value(s) for s in range(3)] == [0, 0, 0]
    assert store.counter_adjust(2, 2) == 2
    assert store.counter_adjust(2, -1) == 1
    with pytest.raises(AssertionError, match="only for accepting states"):
        store.counter_adjust(1, 1)
    assert [store.counter_value(s) for s in range(3)] == [0, 0, 1]


def test_race_no_cycle_verdict_waits_for_every_worker():
    # no worker finds a lasso, so the verdict waits for the longest search
    # and every worker books all of its steps
    def body(w, ws, racing):
        assert racing
        for _ in range(w + 1):
            ws.blue_expansions += 1
            yield
        return None

    v = race(3, body)
    assert (v.winner, v.lasso) == (None, None)
    assert [w.blue_expansions for w in v.stats.workers] == [1, 2, 3]


def test_race_lone_worker_yields_only_for_a_deadline():
    seen = []

    def body(w, ws, racing):
        seen.append(racing)
        return Lasso((0,), (0,), 0)
        yield

    assert race(1, body).winner == 0
    assert race(1, body, deadline=float("inf")).winner == 0
    assert seen == [False, True]
    with pytest.raises(ValueError, match="at least one worker"):
        race(0, body)
