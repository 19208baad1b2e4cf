"""Frozen permuted searches on dense layered graphs.

The graphs are those of the benchmark's verify-layered workload, built
here the same way: half of every layer is accepting, out-degrees run up
to 9, and many successors of a state are already finished or blocked
when it is expanded.  That is where a permuted search may keep a
successor list in canonical order, because at most one of its entries
can still change the search.  The values were taken from the search that
permuted every list of two or more successors, and pin that the searches
that skip it are the same: lasso, blue and red counts, stack depth.
"""

import hashlib
import random

import pytest

from cyclone import (
    BuchiAutomaton,
    ColorStore,
    WorkerStats,
    lndfs,
    ndfs,
    swarm_ndfs,
    validate_lasso,
    worker_keys,
)
import cyclone.search
from cyclone.colors import BLUE, PINK, RED, WHITE
from cyclone.search import nested_search
from strategies import finish


def _layered(seed: int, layers: int, width: int, back_edge: bool) -> BuchiAutomaton:
    # perfbench's layered generator with half the states accepting: per
    # layer a ring of non-accepting states with chords, which also points
    # at the layer's accepting states; accepting states lead only onward,
    # so no cycle is accepting.  back_edge adds one edge from the last
    # layer to an accepting state of an earlier one, closing accepting
    # cycles.
    rng = random.Random(seed)
    n = layers * width
    n_acc = width // 2
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [[] for _ in range(n)]
    blocks = [ids[k * width:(k + 1) * width] for k in range(layers)]
    accs = [b[:n_acc] for b in blocks]
    rings = [b[n_acc:] for b in blocks]

    def add(s: int, t: int) -> None:
        if t not in edges[s]:
            edges[s].append(t)

    for k in range(layers):
        ring, acc = rings[k], accs[k]
        for i, s in enumerate(ring):
            add(s, ring[(i + 1) % len(ring)])
            add(s, rng.choice(ring))
        for a in acc:
            add(rng.choice(ring), a)
        if k + 1 < layers:
            nxt = rings[k + 1] + accs[k + 1]
            for a in acc:
                add(a, rng.choice(rings[k + 1]))
                add(a, rng.choice(nxt))
            for s in ring:
                if rng.random() < 0.25:
                    add(s, rng.choice(nxt))
    for succs in edges:
        rng.shuffle(succs)
    if back_edge:
        add(rng.choice(blocks[-1]), rng.choice(accs[rng.randrange(layers - 1)]))
    accepting = frozenset(a for acc in accs for a in acc)
    return BuchiAutomaton(n, rings[0][0], accepting, edges)


def _graph(k: int) -> BuchiAutomaton:
    # 360 to 2,400 states; the odd ones have an accepting cycle
    return _layered(900 + k, (6, 8, 12, 16)[k % 4], (60, 120, 200)[k % 3], back_edge=k % 2 == 1)


def _digest(lasso) -> str | None:
    if lasso is None:
        return None
    return hashlib.sha256(repr((lasso.stem, lasso.cycle, lasso.accept_index)).encode()).hexdigest()[:12]


def _run(a, lasso, ws):
    assert lasso is None or validate_lasso(a, lasso)
    return (_digest(lasso), ws.blue_expansions, ws.red_expansions, ws.max_stack_depth)


def _observe(a: BuchiAutomaton, seed: int):
    out = []
    for allred in (False, True):
        v = ndfs(a, seed, allred=allred)
        out.append(_run(a, v.lasso, v.stats.workers[0]))
    v = swarm_ndfs(a, 1, seed, heuristic=True)
    out.append(_run(a, v.lasso, v.stats.workers[0]))
    # one shared-color pass each under worker 1's keys: allred, optimistic
    keys = worker_keys(1, seed)
    ws = WorkerStats()
    store = ColorStore(a.num_states, a.accepting)
    res = finish(nested_search(a, ws, store=store, block=store.plane(RED), allred=True, keys=keys))
    out.append(_run(a, res, ws))
    ws = WorkerStats()
    store = ColorStore(a.num_states, a.accepting)
    res = finish(nested_search(a, ws, store=store, block=store.plane(BLUE), keys=keys, repair=_no_repair))
    out.append(_run(a, res, ws))
    return tuple(out)


def _no_repair(stem):
    raise AssertionError("a lone optimistic pass never marks a state dangerous")


# k: (ndfs, allred ndfs, one-worker heuristic swarm, shared allred pass,
#     shared optimistic pass), each (lasso digest, blue, red, max stack depth),
#     detector seed k
_GOLDEN = {
    0: (
        (None, 360, 330, 39),
        (None, 360, 155, 39),
        (None, 360, 330, 39),
        (None, 360, 155, 41),
        (None, 360, 330, 41),
    ),
    1: (
        ('c60c8d5f4232', 116, 21, 93),
        ('c60c8d5f4232', 116, 0, 93),
        ('c60c8d5f4232', 116, 21, 93),
        ('c2e255d4f2ce', 85, 0, 77),
        ('c2e255d4f2ce', 85, 7, 77),
    ),
    2: (
        (None, 2400, 2300, 104),
        (None, 2400, 1111, 104),
        (None, 2400, 2300, 104),
        (None, 2400, 1111, 104),
        (None, 2400, 2300, 104),
    ),
    3: (
        ('f7077dd4fe5d', 113, 25, 79),
        ('f7077dd4fe5d', 113, 5, 79),
        ('f7077dd4fe5d', 113, 25, 79),
        ('62245986a201', 131, 3, 107),
        ('62245986a201', 131, 20, 107),
    ),
    4: (
        (None, 720, 660, 55),
        (None, 720, 305, 55),
        (None, 720, 660, 55),
        (None, 720, 305, 60),
        (None, 720, 660, 60),
    ),
    5: (
        ('6e81bfda604c', 211, 99, 74),
        ('6e81bfda604c', 211, 7, 74),
        ('6e81bfda604c', 211, 99, 74),
        ('b7708c581775', 183, 4, 92),
        ('b7708c581775', 183, 64, 92),
    ),
    6: (
        (None, 720, 690, 61),
        (None, 720, 341, 61),
        (None, 720, 690, 61),
        (None, 720, 341, 57),
        (None, 720, 690, 57),
    ),
    7: (
        ('e69c4bbf2c07', 155, 42, 101),
        ('e69c4bbf2c07', 155, 3, 101),
        ('e69c4bbf2c07', 155, 42, 101),
        ('beb348863832', 134, 0, 103),
        ('beb348863832', 134, 21, 103),
    ),
}


def test_permuted_searches_on_layered_graphs_are_frozen():
    assert len(_GOLDEN) == 8
    degrees = []
    for k, want in _GOLDEN.items():
        a = _graph(k)
        degrees += [len(succs) for succs in a.edges]
        assert _observe(a, k) == want, k
    # as dense as verify-layered, where most lists skip the permutation
    assert max(degrees) == 9
    assert sum(d >= 3 for d in degrees) > len(degrees) // 4


# k: one-worker lndfs under the fresh-successor bias, detector seed k.
# Worker 0 searches in canonical order, so only the bias reorders its
# lists; on graphs 9, 13 and 17 that changes the search.
_GOLDEN_LNDFS_HEURISTIC = {
    0: (None, 360, 155, 36),
    1: ('ec0f64a57dbc', 150, 9, 69),
    2: (None, 2400, 1111, 98),
    3: ('efc4da0fb735', 98, 7, 60),
    4: (None, 720, 305, 57),
    5: ('7ed7969fbb45', 118, 0, 72),
    6: (None, 720, 341, 48),
    7: ('42fe80855ab0', 191, 2, 98),
    9: ('7b9b7a319c00', 72, 3, 38),
    13: ('419c2c6518c7', 127, 0, 76),
    17: ('a7901f456eca', 246, 15, 104),
}


def test_one_worker_heuristic_lndfs_is_frozen():
    for k, want in _GOLDEN_LNDFS_HEURISTIC.items():
        a = _graph(k)
        v = lndfs(a, 1, k, heuristic=True)
        assert _run(a, v.lasso, v.stats.workers[0]) == want, k


def test_permute_skips_lists_with_at_most_one_live_successor(monkeypatch):
    # A successor that is finished or blocked when its list is built stays
    # so, and iterating over it does nothing; with one live entry left the
    # order of the list cannot change the search.  On the dense layered
    # graphs most lists with two or more successors are of that kind, so
    # fewer than half of those expansions may reach permute.
    calls = [0]
    real = cyclone.search.permute

    def counting(succs, h):
        calls[0] += 1
        return real(succs, h)

    monkeypatch.setattr(cyclone.search, "permute", counting)
    k = 2
    a = _graph(k)
    # the engine call behind ndfs(a, k), with its
    # colors and red plane kept to count what it entered
    colors, red = bytearray(a.num_states), bytearray(a.num_states)
    ws = WorkerStats()
    res = finish(nested_search(a, ws, block=red, colors=colors, keys=worker_keys(0, k)))
    assert _run(a, res, ws) == _GOLDEN[k][0]
    assert sum(c != WHITE for c in colors) == ws.blue_expansions
    assert sum(red) == ws.red_expansions
    multi = [len(succs) > 1 for succs in a.edges]
    expanded = sum(multi[s] for s in range(a.num_states) if colors[s] != WHITE)
    expanded += sum(multi[s] for s in range(a.num_states) if red[s])
    assert expanded > 1000
    assert calls[0] < expanded / 2


def _drive(search):
    """Run a racing search to its end: its result and how often it yielded."""
    yields = 0
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value, yields
        yields += 1


@pytest.mark.parametrize("allred", [False, True])
@pytest.mark.parametrize("k", [0, 4])
def test_a_racing_search_yields_once_per_64_successor_reads(k, allred):
    # The engine's yield rule: a racing search ticks once per successor
    # read, the read that finds a list exhausted included, and yields on
    # every 64th tick, before that read.  Entering a state reads its list
    # and one exhausted read, once in blue and once more if red enters it.
    a = _graph(k)  # no accepting cycle: every list entered is read to its end
    colors, block = bytearray(a.num_states), bytearray(a.num_states)
    ws = WorkerStats()
    res, yields = _drive(nested_search(a, ws, block=block, colors=colors, allred=allred, racing=True))
    assert res is None
    blue = [s for s in range(a.num_states) if colors[s] != WHITE]
    # a private search marks red in its block plane; allred colors it pink
    red = [s for s in range(a.num_states) if (colors[s] == PINK if allred else block[s])]
    assert (len(blue), len(red)) == (ws.blue_expansions, ws.red_expansions)
    reads = sum(len(a.edges[s]) + 1 for s in blue + red)
    assert yields == reads // 64 > 0
