"""Benchmark harness: input resolution, watchdogged runs, CSV output.

Inputs are either files in the text format of parse_automaton or inline
generator specs (lasso:STEM:CYC:acc, random:N:DEG:P:SEED,
needle:WIDTH:DEPTH:SEED).  Each run gets a deadline, which the detector
reads between its workers' turns (owcty: between its walks) in the
calling thread, raising WatchdogTimeout once it has passed.  The budget
comes from CYCLONE_WATCHDOG_SECS (default 60 seconds) and must be a
finite number of seconds.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import fmean
from time import perf_counter

from .automaton import BuchiAutomaton, SuccessorOrder, gen_lasso, gen_needle, gen_random, parse_automaton
from .colors import ColorStore
from .nmc import nmc_ndfs
from .optimistic import endfs
from .oracle import has_accepting_cycle, validate_lasso
from .owcty_map import owcty
from .results import Verdict, WatchdogTimeout
from .search import ndfs
from .shared_red import lndfs
from .swarm import swarm_ndfs


@dataclass(frozen=True, slots=True)
class Algorithm:
    """One detector as the harness runs it, and the options it takes.

    run(aut, workers=, seed=, heuristic=, allred=, store=, deadline=) runs
    it once; store is a ColorStore for shared algorithms to use (None for
    a fresh one), deadline the perf_counter() value past which the run
    raises WatchdogTimeout (None for none).  parallel algorithms
    race several workers, shared ones keep a ColorStore whose colors can
    be dumped, and a lenient one ignores a worker count or heuristic it
    cannot use instead of rejecting them.
    """

    run: Callable[..., Verdict]
    parallel: bool = False
    heuristic: bool = False
    allred: bool = False
    shared: bool = False
    lenient: bool = False


# the lambdas look detectors up by module global at call time, so a test
# can patch one
ALGORITHM_TABLE: dict[str, Algorithm] = {
    "ndfs": Algorithm(
        lambda aut, seed, allred, deadline, **_: ndfs(aut, SuccessorOrder(0, seed), allred, deadline),
        allred=True,
    ),
    "swarm": Algorithm(
        lambda aut, workers, seed, heuristic, deadline, **_: swarm_ndfs(aut, workers, seed, heuristic, deadline),
        parallel=True, heuristic=True,
    ),
    "lndfs": Algorithm(
        lambda aut, workers, seed, heuristic, store, deadline, **_: lndfs(
            aut, workers, seed, heuristic, store, deadline
        ),
        parallel=True, heuristic=True, shared=True,
    ),
    "endfs": Algorithm(
        lambda aut, workers, seed, store, deadline, **_: endfs(aut, workers, seed, store, deadline),
        parallel=True, shared=True,
    ),
    "nmc": Algorithm(
        lambda aut, workers, seed, store, deadline, **_: nmc_ndfs(aut, workers, seed, store, deadline),
        parallel=True, shared=True,
    ),
    "owcty": Algorithm(lambda aut, deadline, **_: owcty(aut, deadline), lenient=True),
}


class InvalidConfig(ValueError):
    """Raised for a run configuration the harness cannot execute."""


class InputNotFound(FileNotFoundError):
    """Raised when an input spec is neither a generator nor a readable text file."""


class VerdictCorrupt(RuntimeError):
    """Raised when a detector returns a lasso that fails validation."""


@dataclass(slots=True)
class RunConfig:
    """One benchmark cell: an algorithm on an input at a worker count."""

    algorithm: str
    input: str
    workers: int = 1
    seed: int = 0
    repeats: int = 5
    heuristic: bool = False
    allred: bool = False

    def __post_init__(self) -> None:
        _checked(self.algorithm, self.workers, self.seed, self.heuristic, self.allred)
        if self.repeats < 1:
            raise InvalidConfig(f"repeats must be >= 1, got {self.repeats}")


@dataclass(slots=True)
class BenchRecord:
    """One completed run, one CSV row: its fields are the columns, in order."""

    input: str
    alg: str
    workers: int
    seed: int
    repeat: int
    verdict: str
    wall_time_s: float
    blue_exp: int
    red_exp: int
    repair_exp: int
    dangerous_count: int
    waits: int
    helper_joins: int
    owcty_rounds: int
    map_hits: int

    def to_row(self) -> list:
        return [
            f"{self.wall_time_s:.6f}" if f.name == "wall_time_s" else getattr(self, f.name)
            for f in fields(self)
        ]


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _checked(name: str, workers: int, seed: int, heuristic: bool, allred: bool) -> Algorithm:
    """The table row of an algorithm, once its run options are checked.

    InvalidConfig for an unknown name, fewer than one worker, a negative
    seed, or a worker count, heuristic or allred the algorithm does not
    take; a lenient algorithm ignores a worker count or heuristic instead.
    """
    try:
        alg = ALGORITHM_TABLE[name]
    except KeyError:
        raise InvalidConfig(f"unknown algorithm {name!r}") from None
    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {seed}")
    if not alg.lenient:
        if workers > 1 and not alg.parallel:
            raise InvalidConfig(f"{name} is sequential, workers must be 1")
        if heuristic and not alg.heuristic:
            raise InvalidConfig(f"heuristic ordering not supported by {name}")
    if allred and not alg.allred:
        raise InvalidConfig(f"allred is not a flag of {name}")
    return alg


def resolve_input(spec: str) -> BuchiAutomaton:
    """Turn an input spec into an automaton.

    Generator specs are parsed by prefix; anything else is read as a file.
    """
    head, _, rest = spec.partition(":")
    if head in ("lasso", "random", "needle"):
        parts = rest.split(":") if rest else []
        try:
            if head == "lasso":
                stem, cyc, flag = parts
                if flag not in ("acc", "noacc"):
                    raise ValueError(flag)
                return gen_lasso(int(stem), int(cyc), flag == "acc")
            if head == "random":
                n, deg, p, seed = parts
                return gen_random(int(n), float(deg), float(p), int(seed))
            width, depth, seed = parts
            return gen_needle(int(width), int(depth), int(seed))
        except (ValueError, TypeError) as e:
            raise InvalidConfig(f"bad generator spec {spec!r}: {e}") from e
    path = Path(spec)
    if not path.is_file():
        raise InputNotFound(f"no such input: {spec}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputNotFound(f"cannot read input {spec}: {e}") from e
    return parse_automaton(text)


def watchdog_secs() -> float:
    """The watchdog budget in seconds from CYCLONE_WATCHDOG_SECS, default 60."""
    raw = os.environ.get("CYCLONE_WATCHDOG_SECS", "60")
    try:
        secs = float(raw)
    except ValueError as e:
        raise InvalidConfig(f"bad CYCLONE_WATCHDOG_SECS {raw!r}") from e
    if not math.isfinite(secs):
        raise InvalidConfig(f"bad CYCLONE_WATCHDOG_SECS {raw!r}: not a finite number of seconds")
    return secs


def execute(
    aut: BuchiAutomaton,
    algorithm: str,
    workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    allred: bool = False,
    timeout: float | None = None,
    store: ColorStore | None = None,
) -> Verdict:
    """Run one detector once, in this thread, under the watchdog.

    timeout=None takes the environment budget, and a run still going
    timeout seconds after the call raises WatchdogTimeout; a non-positive
    timeout disables the watchdog, and a non-finite one is rejected with
    InvalidConfig, as are an unknown algorithm and an option it does not
    take.  A pre-built store may be passed for the shared-color
    algorithms to inspect colors afterwards.
    """
    if timeout is None:
        timeout = watchdog_secs()
    elif not math.isfinite(timeout):
        raise InvalidConfig(f"bad timeout {timeout}: not a finite number of seconds")
    alg = _checked(algorithm, workers, seed, heuristic, allred)
    deadline = perf_counter() + timeout if timeout > 0 else None
    try:
        return alg.run(
            aut, workers=workers, seed=seed, heuristic=heuristic, allred=allred, store=store, deadline=deadline
        )
    except WatchdogTimeout:
        raise WatchdogTimeout(f"{algorithm} exceeded {timeout:.1f}s budget") from None


def _record(cfg: RunConfig, repeat: int, seed: int, v: Verdict) -> BenchRecord:
    x = v.stats.extras
    return BenchRecord(
        input=cfg.input,
        alg=cfg.algorithm,
        workers=cfg.workers,
        seed=seed,
        repeat=repeat,
        verdict="CYCLE" if v.lasso is not None else "NO-CYCLE",
        wall_time_s=v.stats.wall_time,
        blue_exp=v.stats.blue_expansions,
        red_exp=v.stats.red_expansions,
        repair_exp=v.stats.repair_expansions,
        dangerous_count=x.get("dangerous_count", 0),
        waits=v.stats.waits,
        helper_joins=v.stats.helper_joins,
        owcty_rounds=x.get("owcty_rounds", 0),
        map_hits=x.get("map_hits", 0),
    )


def run(cfg: RunConfig, aut: BuchiAutomaton | None = None, timeout: float | None = None) -> list[BenchRecord]:
    """Execute a configuration repeats times, bumping the seed each time."""
    if aut is None:
        aut = resolve_input(cfg.input)
    out = []
    for k in range(cfg.repeats):
        seed = cfg.seed + k
        v = execute(aut, cfg.algorithm, cfg.workers, seed, cfg.heuristic, cfg.allred, timeout=timeout)
        if v.lasso is not None and not validate_lasso(aut, v.lasso):
            raise VerdictCorrupt(f"{cfg.algorithm} returned an invalid lasso on {cfg.input}")
        out.append(_record(cfg, k, seed, v))
    return out


@dataclass(slots=True)
class SweepRow:
    """Aggregate over the repeats of one (input, algorithm, workers) cell."""

    input: str
    alg: str
    workers: int
    runs: int
    mean_wall_s: float
    speedup: float


def sweep(
    configs: list[RunConfig],
    oracle_check: bool = False,
    timeout: float | None = None,
) -> tuple[list[BenchRecord], list[SweepRow]]:
    """Run a batch of configurations and aggregate per cell.

    Speedup is the single-worker sequential mean over the cell mean on
    the same input; the baseline cell itself reports exactly 1.0.  With
    oracle_check every verdict is compared against an SCC decision.
    """
    records: list[BenchRecord] = []
    oracle: dict[str, bool] = {}
    auts: dict[str, BuchiAutomaton] = {}
    for cfg in configs:
        aut = auts.get(cfg.input)
        if aut is None:
            aut = auts[cfg.input] = resolve_input(cfg.input)
        if oracle_check and cfg.input not in oracle:
            oracle[cfg.input] = has_accepting_cycle(aut)
        rows = run(cfg, aut=aut, timeout=timeout)
        if oracle_check:
            for r in rows:
                if (r.verdict == "CYCLE") != oracle[cfg.input]:
                    raise VerdictCorrupt(
                        f"{cfg.algorithm} disagrees with the SCC oracle on {cfg.input}"
                    )
        records.extend(rows)

    cells: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        cells.setdefault((r.input, r.alg, r.workers), []).append(r)
    means = {key: fmean(rs.wall_time_s for rs in rows) for key, rows in cells.items()}

    aggregates = []
    for (inp, alg, workers), rows in cells.items():
        base_key = (inp, "ndfs", 1)
        if base_key not in means:
            base_key = (inp, alg, 1)
        if (inp, alg, workers) == base_key:
            speedup = 1.0
        elif base_key in means and means[(inp, alg, workers)] > 0:
            speedup = means[base_key] / means[(inp, alg, workers)]
        else:
            speedup = float("nan")
        aggregates.append(SweepRow(inp, alg, workers, len(rows), means[(inp, alg, workers)], speedup))
    return records, aggregates


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in records:
            w.writerow(r.to_row())


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("input,alg,workers,runs,mean_wall_s,speedup\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in rows:
            w.writerow([r.input, r.alg, r.workers, r.runs, f"{r.mean_wall_s:.6f}", f"{r.speedup:.4f}"])
