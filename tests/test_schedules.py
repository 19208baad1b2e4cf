"""Racing workers under the turn driver: sound, bounded, repeatable, sharing.

race runs the workers' searches in turns in one thread, and a racing
search yields every 64 steps, while it waits on an accept counter, and
through its repairs.  This sweep runs every multi-worker detector at 2-4
workers on random, layered and needle graphs and holds each run to the
acceptance criteria: the oracle's verdict, a valid lasso, the work
ceilings and drained accept counters.  It runs each one twice and
requires the same lasso, winner and per-worker counters, and it requires
the sweep as a whole to reach the shared-color protocols: counter waits,
dangerous marks and repairs, in every detector that has them.

The turns interleave whole steps only.  Preemption inside a step, which
threads sharing a ColorStore could bring, is not explored here.
"""

import dataclasses

from cyclone import (
    ColorStore,
    endfs,
    gen_needle,
    gen_random,
    has_accepting_cycle,
    lndfs,
    nmc_ndfs,
    swarm_ndfs,
    validate_lasso,
)
from strategies import layered

DETECTORS = {
    "swarm": lambda a, n, seed, store: swarm_ndfs(a, n, seed),
    "swarm-heuristic": lambda a, n, seed, store: swarm_ndfs(a, n, seed, heuristic=True),
    "lndfs": lambda a, n, seed, store: lndfs(a, n, seed, store=store),
    "endfs": lambda a, n, seed, store: endfs(a, n, seed, store=store),
    "nmc": lambda a, n, seed, store: nmc_ndfs(a, n, seed, store=store),
}
# held to 2N|S| expansions in total; the optimistic ones to 4|S| per worker
TWO_VISITS = ("swarm", "swarm-heuristic", "lndfs")


def _graphs():
    # the odd layered graphs and the even needles have an accepting cycle;
    # some random ones do
    for k in range(8):
        yield f"random{k}", gen_random(300, 2.0, 0.2, k)
        yield f"layered{k}", layered(k, back_edge=k % 2 == 1)
        yield f"needle{k}", gen_needle(6, 60, k, with_cycle=k % 2 == 0)


def _run(alg, a, n, seed):
    store = ColorStore(a.num_states, a.accepting)
    return DETECTORS[alg](a, n, seed, store), store


def _replay(v):
    return v.lasso, v.winner, [dataclasses.astuple(w) for w in v.stats.workers]


def test_sweep_is_sound_bounded_repeatable_and_shares_work():
    reached = {alg: [0, 0, 0] for alg in DETECTORS}  # waits, dangerous marks, repair expansions
    for seed, (name, a) in enumerate(_graphs()):
        want = has_accepting_cycle(a)
        for alg in DETECTORS:
            for n in (2, 3, 4):
                case = (alg, name, n)
                v, store = _run(alg, a, n, seed)
                assert v.cycle_found == want, case
                if v.lasso is not None:
                    assert validate_lasso(a, v.lasso), case
                else:
                    assert all(store.counter_value(s) == 0 for s in a.accepting), case
                own = [w.blue_expansions + w.red_expansions + w.repair_expansions for w in v.stats.workers]
                if alg in TWO_VISITS:
                    assert sum(own) <= 2 * n * a.num_states, case
                else:
                    assert max(own) <= 4 * a.num_states, case
                assert _replay(_run(alg, a, n, seed)[0]) == _replay(v), case
                reached[alg][0] += v.stats.waits
                reached[alg][1] += sum(w.dangerous_marks for w in v.stats.workers)
                reached[alg][2] += v.stats.repair_expansions
    # each protocol is reached by every detector that has it
    assert reached["lndfs"][0] > 0, reached
    assert reached["endfs"][1] > 0 and reached["endfs"][2] > 0, reached
    assert all(x > 0 for x in reached["nmc"]), reached
