"""Harness plumbing: input specs, records, watchdog, sweep aggregates."""

import inspect
import threading
import time

import pytest

import cyclone
import cyclone.bench as bench
import cyclone.owcty_map
from cyclone import (
    CSV_HEADER,
    BenchRecord,
    BuchiAutomaton,
    ColorStore,
    InputNotFound,
    InvalidConfig,
    RunConfig,
    Verdict,
    VerdictCorrupt,
    WatchdogTimeout,
    WorkerStats,
    WorkStats,
    execute,
    gen_lasso,
    resolve_input,
    sweep,
    write_csv,
)
from cyclone.results import Lasso
from strategies import onion


def test_resolve_generator_specs():
    assert resolve_input("lasso:2:3:acc") == gen_lasso(2, 3, True)
    assert resolve_input("lasso:2:3:noacc") == gen_lasso(2, 3, False)
    a = resolve_input("random:30:2.0:0.2:5")
    assert a.num_states == 30
    b = resolve_input("needle:4:10:1")
    assert b.num_states == 43


def test_resolve_file_and_missing(tmp_path):
    p = tmp_path / "x.aut"
    p.write_text(gen_lasso(1, 2, True).to_text())
    assert resolve_input(str(p)) == gen_lasso(1, 2, True)
    with pytest.raises(InputNotFound):
        resolve_input(str(tmp_path / "nope.aut"))


@pytest.mark.parametrize(
    "spec",
    [
        "lasso:2:3:maybe",
        "lasso:2:3",
        "random:10:x:0.1:1",
        "random:10:inf:0.1:1",
        "random:10:nan:0.1:1",
        "needle:4:10",
        "lasso:2:0:acc",
        "lasso:-1:2:acc",
        "random:0:2:0.1:1",
        "random:10:2:1.5:1",
        "random:10:11:0.1:1",
        "needle:0:10:1",
        # counts and seeds are ASCII digits only, as the text format's ids
        "lasso:1_0:1:acc",
        "needle:\u0663:2:0",
        "needle:2:2:-1",
        "random:5:2:0.5:+3",
        "lasso: 2:3:acc",
    ],
)
def test_bad_generator_specs_rejected(spec):
    with pytest.raises(InvalidConfig):
        resolve_input(spec)


def test_config_validation():
    RunConfig("ndfs", "lasso:1:1:acc")  # fine
    # the comparator simply ignores the worker and heuristic axes
    RunConfig("owcty", "x", workers=8, heuristic=True)
    with pytest.raises(InvalidConfig):
        RunConfig("magic", "lasso:1:1:acc")
    with pytest.raises(InvalidConfig):
        RunConfig("ndfs", "x", workers=0)
    with pytest.raises(InvalidConfig):
        RunConfig("ndfs", "x", workers=4)  # sequential
    with pytest.raises(InvalidConfig):
        RunConfig("endfs", "x", heuristic=True)
    with pytest.raises(InvalidConfig):
        RunConfig("lndfs", "x", allred=True)
    with pytest.raises(InvalidConfig):
        RunConfig("ndfs", "x", repeats=0)


def test_execute_enforces_the_algorithm_table():
    # the checks of RunConfig, so a direct call drops no option silently
    a = gen_lasso(1, 1, True)
    for alg, opts in (
        ("magic", {}),
        ("ndfs", {"workers": 0}),
        ("ndfs", {"workers": 4}),
        ("ndfs", {"seed": -1}),
        ("endfs", {"heuristic": True}),
        ("swarm", {"allred": True}),
        # a store the detector never colors would dump as a run that proved nothing
        ("ndfs", {"store": ColorStore(a.num_states, a.accepting)}),
        ("swarm", {"store": ColorStore(a.num_states, a.accepting)}),
        ("owcty", {"store": ColorStore(a.num_states, a.accepting)}),
    ):
        with pytest.raises(InvalidConfig):
            execute(a, alg, timeout=0, **opts)
    assert execute(a, "owcty", 8, heuristic=True, timeout=0).lasso is not None


def test_comparator_ignores_worker_count():
    records = sweep([RunConfig("owcty", "lasso:2:3:noacc", workers=8, repeats=1)], timeout=0)[0]
    assert records[0].verdict == "NO-CYCLE"
    assert records[0].owcty_rounds >= 1


def test_csv_header_and_rows(tmp_path):
    records = sweep([RunConfig("ndfs", "lasso:2:3:acc", repeats=3)], timeout=0)[0]
    out = tmp_path / "r.csv"
    write_csv(records, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "input,alg,workers,seed,repeat,verdict,wall_time_s,blue_exp,red_exp,"
        "repair_exp,dangerous_count,waits,helper_joins,owcty_rounds,map_hits"
    )
    assert len(lines) == 4
    assert lines[1].startswith("lasso:2:3:acc,ndfs,1,0,0,CYCLE,")


def test_a_record_is_one_row_under_the_header():
    assert CSV_HEADER == (
        "input,alg,workers,seed,repeat,verdict,wall_time_s,blue_exp,red_exp,"
        "repair_exp,dangerous_count,waits,helper_joins,owcty_rounds,map_hits"
    )
    # the counters sum over the workers; the seed is the run's, not the config's
    stats = WorkStats([WorkerStats(blue_expansions=5, red_expansions=12, waits=15),
                       WorkerStats(blue_expansions=6, repair_expansions=13, helper_joins=16)], 0.01234567)
    stats.extras.update(dangerous_count=14, owcty_rounds=2, map_hits=1)
    v = Verdict(Lasso((0, 1), (1, 2), 0), stats, winner=1)
    r = BenchRecord(RunConfig("nmc", "needle:4:5:0", workers=2, seed=3), 1, 7, v)
    assert r.to_row() == ["needle:4:5:0", "nmc", 2, 7, 1, "CYCLE", "0.012346", 11, 12, 13, 14, 15, 16, 2, 1]
    # absent extras read as zero
    r = BenchRecord(RunConfig("owcty", "x"), 0, 0, Verdict(None, WorkStats([WorkerStats()], 0.0)))
    assert r.to_row() == ["x", "owcty", 1, 0, 0, "NO-CYCLE", "0.000000", 0, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("spec", ["lasso:2:3:acc", "lasso:2:3:noacc"])
def test_every_extra_a_detector_sets_is_a_csv_column(spec):
    # a figure a run records but no column exports is work nothing reads
    a = resolve_input(spec)
    for alg, row in bench.ALGORITHM_TABLE.items():
        v = execute(a, alg, 2 if "n_workers" in row.takes else 1, timeout=0)
        assert set(v.stats.extras) <= set(bench._COLUMNS), alg


def test_repeats_bump_the_seed():
    records = sweep([RunConfig("swarm", "lasso:2:3:acc", seed=10, repeats=4)], timeout=0)[0]
    assert [r.seed for r in records] == [10, 11, 12, 13]
    assert [r.repeat for r in records] == [0, 1, 2, 3]


def test_trivial_lasso_repeats_both_find_the_cycle():
    records = sweep([RunConfig("ndfs", "lasso:0:1:acc", repeats=2)], timeout=0)[0]
    assert [r.verdict for r in records] == ["CYCLE", "CYCLE"]


def test_parallel_repeats_agree_with_the_oracle():
    from cyclone import has_accepting_cycle

    a = resolve_input("random:200:2:0.2:9")
    want = "CYCLE" if has_accepting_cycle(a) else "NO-CYCLE"
    records = sweep([RunConfig("lndfs", "random:200:2:0.2:9", workers=4, repeats=5)], timeout=0)[0]
    assert len(records) == 5
    assert all(r.verdict == want for r in records)


def test_aggregate_wall_time_is_the_mean_of_repeats():
    records, rows = sweep([RunConfig("ndfs", "lasso:2:3:acc", repeats=5)], timeout=0)
    mean = sum(r.wall_time_s for r in records) / 5
    assert rows[0].mean_wall_s == pytest.approx(mean, rel=1e-9)


def test_execute_every_algorithm_once():
    a = resolve_input("random:40:2.0:0.2:3")
    for alg, spec in bench.ALGORITHM_TABLE.items():
        v = execute(a, alg, workers=2 if "n_workers" in spec.takes else 1, timeout=0)
        assert isinstance(v, Verdict)


def _flagged_options(spec: bench.Algorithm) -> set[str]:
    return {"deadline", *spec.takes}


@pytest.mark.parametrize("alg", sorted(bench.ALGORITHM_TABLE))
def test_a_rows_flags_are_its_detectors_parameters(alg, monkeypatch):
    spec = bench.ALGORITHM_TABLE[alg]
    detector = getattr(cyclone, spec.function)
    params = list(inspect.signature(detector).parameters)
    assert params[0] == "aut"
    assert set(params[1:]) == _flagged_options(spec)
    passed = []

    def recorder(aut, **options):
        passed.append(set(options))
        return detector(aut, **options)

    monkeypatch.setattr(cyclone, spec.function, recorder)
    execute(resolve_input("lasso:2:3:acc"), alg, timeout=0)
    assert passed == [set(params[1:])]


@pytest.fixture(scope="module")
def big():
    # no accepting state, so every detector searches all of it: a one-worker
    # ndfs takes about two seconds, ten times the budget below.  A run that
    # finished would return a verdict, so the raise shows the deadline
    # stopped it; the time bounds only cap the overshoot, with room for a
    # slow machine
    return resolve_input("random:300000:3.0:0.0:1")


def test_watchdog_fires_and_terminates_the_run(big):
    t0 = time.perf_counter()
    with pytest.raises(WatchdogTimeout, match="lndfs exceeded 0.2s budget"):
        execute(big, "lndfs", 2, timeout=0.2)
    assert time.perf_counter() - t0 < 2.0


def test_watchdog_stops_ndfs_and_leaves_no_thread(big):
    threads = threading.active_count()
    with pytest.raises(WatchdogTimeout):
        execute(big, "ndfs", timeout=0.2)
    assert threading.active_count() == threads


def test_every_algorithm_stops_at_its_deadline(big):
    threads = threading.active_count()
    for alg, spec in bench.ALGORITHM_TABLE.items():
        for workers in (1, 3) if "n_workers" in spec.takes else (1,):
            t0 = time.perf_counter()
            with pytest.raises(WatchdogTimeout):
                execute(big, alg, workers, timeout=0.2)
            assert time.perf_counter() - t0 < 2.0, (alg, workers)
    assert threading.active_count() == threads


def test_watchdog_stops_owcty_inside_the_fixpoint_and_leaves_no_thread(monkeypatch):
    a = onion(40)
    small = execute(a, "owcty", timeout=0)
    assert small.lasso is None
    assert small.stats.extras["owcty_rounds"] == 41  # one more drops the last ring
    # the clock is read after the reach walk and after the predecessor pass,
    # the propagation's 279 pops stay under its every-1,024 read, and the
    # fixpoint reads it twice a round, so read 42 is round 20's second
    reads = []
    real = cyclone.owcty_map.check_deadline

    def expiring(deadline):
        reads.append(deadline)
        real(time.perf_counter() - 1 if len(reads) == 42 else deadline)

    monkeypatch.setattr(cyclone.owcty_map, "check_deadline", expiring)
    threads = threading.active_count()
    with pytest.raises(WatchdogTimeout, match="owcty exceeded 60.0s budget"):
        execute(a, "owcty", timeout=60)
    assert len(reads) == 42
    assert threading.active_count() == threads


def _chain_behind_cycle(k: int) -> BuchiAutomaton:
    # 0 -> N -> M <-> B, and M -> 1 -> 2 -> ... -> k, a dead-end chain;
    # N, M and the chain are accepting, with ids 1..k < B < M < N.  N's id
    # masks M's, so the propagation misses the cycle, and the fixpoint keeps
    # the chain; the lasso search then tries 1..k before M, each with a
    # walk down the rest of the chain
    b, m, n = k + 1, k + 2, k + 3
    edges = [[n]] + [[i + 1] for i in range(1, k)] + [[], [m], [b, 1], [m]]
    return BuchiAutomaton(k + 4, 0, frozenset([*range(1, k + 1), m, n]), edges)


def test_watchdog_stops_owcty_while_it_builds_the_lasso():
    small = execute(_chain_behind_cycle(50), "owcty", timeout=0)
    assert small.lasso.cycle == (52, 51)
    assert small.stats.extras == {"owcty_rounds": 2, "map_hits": 0}
    # both phases take milliseconds; the lasso search alone takes about
    # 200 million steps, half a minute, against 0.2 s
    t0 = time.perf_counter()
    with pytest.raises(WatchdogTimeout):
        execute(_chain_behind_cycle(20000), "owcty", timeout=0.2)
    assert time.perf_counter() - t0 < 2.0


def test_watchdog_budget_comes_from_environment(monkeypatch):
    monkeypatch.setenv("CYCLONE_WATCHDOG_SECS", "123.5")
    assert bench.watchdog_secs() == 123.5
    monkeypatch.setenv("CYCLONE_WATCHDOG_SECS", "soon")
    with pytest.raises(InvalidConfig):
        bench.watchdog_secs()


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "Infinity"])
def test_non_finite_environment_budget_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("CYCLONE_WATCHDOG_SECS", raw)
    with pytest.raises(InvalidConfig, match=repr(raw)):
        bench.watchdog_secs()
    with pytest.raises(InvalidConfig):
        execute(resolve_input("lasso:1:1:acc"), "ndfs")


@pytest.mark.parametrize("secs", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_timeout_is_rejected(secs):
    with pytest.raises(InvalidConfig, match="not a finite number"):
        execute(resolve_input("lasso:1:1:acc"), "ndfs", timeout=secs)


def test_unreadable_input_file_is_input_not_found(tmp_path):
    p = tmp_path / "x.aut"
    p.write_bytes(b"states 1\ninit 0\n\xff\xfe\n")
    with pytest.raises(InputNotFound, match="cannot read"):
        resolve_input(str(p))


def test_invalid_lasso_is_reported_not_recorded(monkeypatch):
    def liar(aut, seed=None, allred=False, deadline=None):
        bogus = Lasso((0,), (0,), 0)
        return Verdict(bogus, WorkStats([WorkerStats()], 0.0), winner=0)

    monkeypatch.setattr(cyclone, "ndfs", liar)
    with pytest.raises(VerdictCorrupt, match="invalid lasso on lasso:2:3:acc"):
        sweep([RunConfig("ndfs", "lasso:2:3:acc")], timeout=0)[0]


def test_sweep_oracle_check_catches_wrong_verdicts(monkeypatch):
    def denier(aut, seed=None, allred=False, deadline=None):
        return Verdict(None, WorkStats([WorkerStats()], 0.0))

    monkeypatch.setattr(cyclone, "ndfs", denier)
    with pytest.raises(VerdictCorrupt):
        sweep([RunConfig("ndfs", "lasso:2:3:acc", repeats=1)], oracle_check=True, timeout=0)


def test_sweep_aggregates_and_baseline():
    configs = [
        RunConfig("ndfs", "lasso:2:3:acc", repeats=3),
        RunConfig("swarm", "lasso:2:3:acc", workers=2, repeats=3),
    ]
    records, rows = sweep(configs, oracle_check=True, timeout=0)
    assert len(records) == 6
    by_key = {(r.alg, r.workers): r for r in rows}
    assert by_key[("ndfs", 1)].speedup == 1.0
    assert by_key[("swarm", 2)].runs == 3
    assert by_key[("swarm", 2)].mean_wall_s > 0


def test_sweep_falls_back_to_same_algorithm_baseline():
    records, rows = sweep([RunConfig("owcty", "lasso:2:3:acc", repeats=2)], timeout=0)
    assert len(rows) == 1
    assert rows[0].speedup == 1.0


def test_sweep_gives_no_speedup_without_a_baseline_or_for_a_zero_mean(monkeypatch):
    # two-worker swarm alone: no ndfs cell and no one-worker swarm cell
    _, (row,) = sweep([RunConfig("swarm", "lasso:2:3:acc", workers=2)], timeout=0)
    assert row.speedup is None

    def instant(aut, **options):
        return Verdict(None, WorkStats([WorkerStats(), WorkerStats()], 0.0))

    monkeypatch.setattr(cyclone, "swarm_ndfs", instant)
    _, rows = sweep([RunConfig("ndfs", "lasso:2:3:acc"), RunConfig("swarm", "lasso:2:3:acc", workers=2)], timeout=0)
    by_key = {(r.alg, r.workers): r for r in rows}
    assert by_key[("ndfs", 1)].speedup == 1.0
    assert by_key[("swarm", 2)].mean_wall_s == 0
    assert by_key[("swarm", 2)].speedup is None
