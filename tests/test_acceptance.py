"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with -s to see the lines as they complete.  The shared sweep runs
every detector over a mixed corpus of generated automata; the later
criteria add their own dedicated workloads (deadlock budget, full-red
postcondition, the racing model, needle races, comparator structure).
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from cyclone import (
    ColorStore,
    EmpiricalDistribution,
    WatchdogTimeout,
    execute,
    gen_lasso,
    gen_needle,
    gen_random,
    has_accepting_cycle,
    map_pass,
    ndfs,
    swarm_ndfs,
    validate_lasso,
)
from cyclone.colors import RED

SEEDS = range(5)
WORKER_COUNTS = (1, 2, 4, 8)
SIZES = (10, 25, 50, 100, 200, 350, 500)
ACCEPT_PROBS = (0.05, 0.2, 0.5)


def _report(num: int, ok: bool, text: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def corpus():
    """500 random + 60 lasso + 20 needle automata with oracle verdicts."""
    items = []
    for i in range(500):
        a = gen_random(SIZES[i % len(SIZES)], 2.0, ACCEPT_PROBS[i % len(ACCEPT_PROBS)], i)
        items.append((f"random-{i}", a))
    for stem in range(6):
        for cyc in range(1, 6):
            for acc in (True, False):
                items.append((f"lasso-{stem}-{cyc}-{acc}", gen_lasso(stem, cyc, acc)))
    for s in range(20):
        items.append((f"needle-{s}", gen_needle(4, 50, s)))
    return [(name, a, has_accepting_cycle(a)) for name, a in items]


@pytest.fixture(scope="session")
def sweep_runs(corpus):
    """Every algorithm on every corpus input; see the module docstring.

    Sequential algorithms ignore the worker axis, so they run once per
    seed (once in total for the deterministic comparator) instead of
    once per (workers, seed) cell.
    """
    t0 = time.perf_counter()
    runs = []

    def record(name, aut, want, alg, workers, seed, v):
        ok_lasso = None
        if v.lasso is not None:
            ok_lasso = validate_lasso(aut, v.lasso)
        runs.append({
            "input": name,
            "n": aut.num_states,
            "alg": alg,
            "workers": workers,
            "seed": seed,
            "found": v.cycle_found,
            "want": want,
            "lasso_valid": ok_lasso,
            "per_worker": [
                (w.blue_expansions, w.red_expansions, w.repair_expansions)
                for w in v.stats.workers
            ],
            "extras": dict(v.stats.extras),
        })

    for name, aut, want in corpus:
        for seed in SEEDS:
            record(name, aut, want, "ndfs", 1, seed,
                   execute(aut, "ndfs", 1, seed, timeout=0))
            record(name, aut, want, "ndfs+allred", 1, seed,
                   execute(aut, "ndfs", 1, seed, allred=True, timeout=0))
        record(name, aut, want, "owcty", 1, 0, execute(aut, "owcty", timeout=0))
        for alg in ("swarm", "lndfs", "endfs", "nmc"):
            for workers in WORKER_COUNTS:
                for seed in SEEDS:
                    record(name, aut, want, alg, workers, seed,
                           execute(aut, alg, workers, seed, timeout=0))
    print(f"\n[sweep: {len(runs)} runs over {len(corpus)} inputs "
          f"in {time.perf_counter() - t0:.1f}s]", flush=True)
    return runs


def test_criterion_1_oracle_equivalence(sweep_runs):
    bad = [r for r in sweep_runs if r["found"] != r["want"]]
    _report(1, not bad,
            f"oracle equivalence over {len(sweep_runs)} runs "
            f"({len(bad)} disagreements)")


def test_criterion_2_lasso_validity(sweep_runs):
    found = [r for r in sweep_runs if r["found"]]
    bad = [r for r in found if r["lasso_valid"] is not True]
    _report(2, not bad,
            f"lasso validity on {len(found)} cycle verdicts "
            f"({len(bad)} invalid)")


def test_criterion_3_sequential_work_bound(sweep_runs):
    rows = [r for r in sweep_runs if r["alg"] in ("ndfs", "ndfs+allred")]
    bad = [r for r in rows
           if r["per_worker"][0][0] + r["per_worker"][0][1] > 2 * r["n"]]
    _report(3, not bad,
            f"blue+red <= 2|S| on {len(rows)} sequential runs "
            f"({len(bad)} violations)")


def test_criterion_4_parallel_work_ceiling(sweep_runs):
    bad = 0
    checked = 0
    for r in sweep_runs:
        if r["alg"] in ("swarm", "lndfs"):
            checked += 1
            total = sum(b + rd for b, rd, _ in r["per_worker"])
            if total > 2 * r["workers"] * r["n"]:
                bad += 1
        elif r["alg"] in ("endfs", "nmc"):
            checked += 1
            if any(b + rd + rp > 4 * r["n"] for b, rd, rp in r["per_worker"]):
                bad += 1
    _report(4, bad == 0,
            f"work ceilings (2N|S| shared, 4|S| per optimistic worker) "
            f"on {checked} runs ({bad} violations)")


def test_criterion_5_deadlock_freedom():
    trips = 0
    t0 = time.perf_counter()
    for alg in ("lndfs", "nmc"):
        for seed in range(100):
            a = gen_random(500, 3.0, 0.3, seed)
            try:
                execute(a, alg, 8, seed, timeout=60.0)
            except WatchdogTimeout:
                trips += 1
    _report(5, trips == 0,
            f"200 eight-worker runs within the 60s watchdog "
            f"({trips} trips, {time.perf_counter() - t0:.1f}s total)")


def test_criterion_6_optimistic_single_worker_purity(sweep_runs):
    rows = [r for r in sweep_runs if r["alg"] == "endfs" and r["workers"] == 1]
    bad = [r for r in rows
           if r["extras"]["dangerous_count"] != 0
           or any(rp != 0 for _, _, rp in r["per_worker"])]
    _report(6, not bad,
            f"single-worker optimistic runs repair-free on {len(rows)} runs "
            f"({len(bad)} violations)")


def test_criterion_7_full_red_postcondition():
    bad = 0
    cases = 0
    for stem in range(4):
        for cyc in range(1, 6):
            # no accepting cycle, one accepting state, all states reachable
            a = gen_lasso(stem, cyc, False)
            cases += 1
            store = ColorStore(a.num_states, a.accepting)
            v = execute(a, "lndfs", 4, 17, timeout=0, store=store)
            assert not v.cycle_found
            if not all(store.get_flag(s, RED) for s in range(a.num_states)):
                bad += 1
    _report(7, bad == 0,
            f"every state red after {cases} no-cycle shared-red runs "
            f"({bad} incomplete)")


def test_criterion_8_racing_model():
    msgs = []
    ok = True

    d = EmpiricalDistribution.from_samples([2.0, 4.0])
    a_ok = abs(d.swarm_cdf(3.0, 16) - (1 - 2.0**-16)) <= 1e-12
    ok &= a_ok
    msgs.append(f"(a) cdf16 {'ok' if a_ok else 'off'}")

    b_ok = abs(d.expected_min(2) - 2.5) < 1e-12
    ok &= b_ok
    msgs.append(f"(b) expected_min {'ok' if b_ok else 'off'}")

    rng = np.random.default_rng(7)
    samples = rng.exponential(1.0, 500)
    dist = EmpiricalDistribution.from_samples(samples)
    minima = rng.choice(samples, size=(100_000, 16), replace=True).min(axis=1)
    se = minima.std(ddof=1) / math.sqrt(len(minima))
    dev = abs(minima.mean() - dist.expected_min(16))
    c_ok = dev <= 3 * se
    ok &= c_ok
    msgs.append(f"(c) monte carlo dev {dev:.2e} <= 3se {3 * se:.2e}: {c_ok}")

    rng2 = random.Random(123)
    xs = [rng2.expovariate(1.0) for _ in range(10_000)]
    d4 = EmpiricalDistribution.from_samples(xs)
    mean = sum(xs) / len(xs)
    rel = abs(d4.expected_min(16) - mean / 16) / (mean / 16)
    d_ok = rel <= 0.05
    ok &= d_ok
    msgs.append(f"(d) exp min16 rel err {rel:.3f} <= 0.05: {d_ok}")

    _report(8, ok, "racing model " + ", ".join(msgs))


def test_criterion_9_swarm_bug_hunting():
    seq, win = [], []
    for seed in range(20):
        a = gen_needle(16, 2000, seed)
        seq.append(ndfs(a).stats.blue_expansions)
        v = swarm_ndfs(a, 16, seed)
        assert v.cycle_found
        win.append(v.stats.workers[v.winner].blue_expansions)
    ms, mw = statistics.median(seq), statistics.median(win)
    ratio = mw / ms
    _report(9, ratio < 0.5,
            f"winning-worker median {mw:.0f} vs sequential median {ms:.0f} "
            f"(ratio {ratio:.3f} < 0.5)")


def test_criterion_10_fresh_successor_heuristic():
    plain, biased = [], []
    for seed in range(20):
        a = gen_needle(16, 2000, seed)
        biased.append(swarm_ndfs(a, 8, seed, heuristic=True).stats.total_expansions)
        plain.append(swarm_ndfs(a, 8, seed, heuristic=False).stats.total_expansions)
    mb, mp = statistics.median(biased), statistics.median(plain)
    _report(10, mb <= mp,
            f"heuristic median total {mb:.0f} <= plain {mp:.0f} "
            f"(ratio {mb / mp:.3f})")


def test_criterion_11_comparator_structure(corpus, sweep_runs):
    rows = [r for r in sweep_runs if r["alg"] == "owcty"]
    round_bad = [r for r in rows if r["extras"]["owcty_rounds"] > r["n"]]
    map_bad = 0
    for name, a, want in corpus:
        mr = map_pass(a)
        if mr.lasso is not None and not want:
            map_bad += 1
    _report(11, not round_bad and map_bad == 0,
            f"rounds <= |S| on {len(rows)} runs ({len(round_bad)} over), "
            f"propagation sound on {len(corpus)} inputs ({map_bad} unsound)")
