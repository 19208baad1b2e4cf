"""Shared color table: atomicity, counters, and the engine's zero-wait protocol."""

import sys
import threading

import pytest

from cyclone import BuchiAutomaton, ColorStore, ReporterSlot, UnderflowFault, WorkerStats
from cyclone.colors import BLUE, DANGEROUS, FLAGS, RED, SAFE
from cyclone.search import nested_search


def _spawn(n, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_set_flag_reports_previous_value_exactly_once():
    store = ColorStore(4)
    firsts = []

    def body(i):
        if not store.set_flag(2, RED):
            firsts.append(i)

    _spawn(8, body)
    assert len(firsts) == 1
    assert store.get_flag(2, RED)
    assert not store.get_flag(2, BLUE)


def test_flags_are_independent_bits():
    store = ColorStore(3)
    store.set_flag(1, RED)
    store.set_flag(1, DANGEROUS)
    assert store.get_flag(1, RED)
    assert store.get_flag(1, DANGEROUS)
    assert not store.get_flag(1, BLUE)
    assert not any(store.get_flag(s, bit) for s in (0, 2) for bit in FLAGS)


def test_planes_keep_every_flag_under_concurrent_writers():
    # one writer per flag stores into every state with a plain store, as the
    # engine publishes; a store that read-modify-wrote a shared word would
    # lose some of the others' flags under frequent thread switches
    n = 20_000
    store = ColorStore(n)
    go = threading.Event()

    def body(i):
        plane = store.plane(FLAGS[i])
        go.wait()
        for s in range(n):
            plane[s] = 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(i,)) for i in range(len(FLAGS))]
        for t in threads:
            t.start()
        go.set()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    assert all(store.get_flag(s, bit) for s in range(n) for bit in FLAGS)


def test_set_flag_reports_first_setter_once_per_state_and_flag():
    store = ColorStore(50)
    firsts = []
    lock = threading.Lock()

    def body(i):
        mine = [(s, bit) for s in range(store.num_states) for bit in FLAGS if not store.set_flag(s, bit)]
        with lock:
            firsts.extend(mine)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _spawn(8, body)
    finally:
        sys.setswitchinterval(old)
    assert sorted(firsts) == sorted((s, bit) for s in range(store.num_states) for bit in FLAGS)


def test_counter_balances_across_threads():
    store = ColorStore(2, accepting=[0])

    def body(i):
        for _ in range(500):
            store.counter_adjust(0, 1)
            store.counter_adjust(0, -1)

    _spawn(8, body)
    assert store.counter_value(0) == 0


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
    return store, ws, nested_search(a, ws, store=store, allred=True)


def test_counter_wait_yields_until_the_counter_drains():
    store, ws, search = _waiting_search()
    for _ in range(3):
        assert next(search) is None
        assert store.counter_value(0) == 1
        assert not store.get_flag(0, RED)
    assert all(store.get_flag(s, RED) for s in (1, 2))  # the red search is done
    store.counter_adjust(0, -1)
    with pytest.raises(StopIteration) as done:
        next(search)
    assert done.value.value is None
    assert store.get_flag(0, RED)
    assert ws.waits == 1 and (ws.blue_expansions, ws.red_expansions) == (3, 3)


def test_counter_wait_stops_on_termination():
    # the run ends by closing the search where it waits
    store, ws, search = _waiting_search()
    assert next(search) is None
    search.close()
    assert not store.get_flag(0, RED)
    assert ws.waits == 1 and (ws.blue_expansions, ws.red_expansions) == (3, 3)


def test_reporter_slot_first_claim_wins():
    slot = ReporterSlot()
    claims = []

    def body(i):
        claims.append((i, slot.claim(i, f"lasso-{i}")))

    _spawn(8, body)
    winners = [i for i, won in claims if won]
    assert len(winners) == 1
    assert slot.worker == winners[0]
    assert slot.lasso == f"lasso-{winners[0]}"


def test_dump_csv_shape():
    store = ColorStore(3, accepting=[1])
    store.set_flag(0, RED)
    store.set_flag(2, BLUE)
    store.set_flag(2, SAFE)
    store.counter_adjust(1, 1)
    lines = store.dump_csv().splitlines()
    assert lines[0] == "state,red,blue,dangerous,safe,count"
    assert lines[1] == "0,1,0,0,0,0"
    assert lines[2] == "1,0,0,0,0,1"
    assert lines[3] == "2,0,1,0,1,0"
