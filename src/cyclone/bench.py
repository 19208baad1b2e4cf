"""Benchmark harness: input resolution, watchdogged runs, CSV output.

Inputs are either files in the text format of parse_automaton or inline
generator specs (lasso:STEM:CYC:acc, random:N:DEG:P:SEED,
needle:WIDTH:DEPTH:SEED).  Each run gets a deadline, which the detector
reads between its workers' turns (owcty: between its walks) in the
calling thread, raising WatchdogTimeout once it has passed.  The budget
comes from CYCLONE_WATCHDOG_SECS (default 60 seconds) and must be a
finite number of seconds.

ALGORITHM_TABLE names each detector by its public name and lists the
keywords it takes; execute looks the name up in the package, whose lazy
exports import only the module of the detector it runs.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from time import perf_counter

from .automaton import BuchiAutomaton, gen_lasso, gen_needle, gen_random, parse_automaton
from .colors import ColorStore
from .oracle import has_accepting_cycle, validate_lasso
from .results import Verdict, WatchdogTimeout


class Algorithm:
    """One detector as the harness runs it, and the keywords it takes.

    function is the detector's public name in cyclone; execute calls it
    with the automaton and, by keyword, deadline (the perf_counter()
    value past which the run raises WatchdogTimeout, None for none) and
    each option named in takes: n_workers, seed, heuristic, allred, and
    store (a ColorStore whose colors can be dumped, None for a fresh
    one).  An option given but not taken is rejected, except that a
    lenient row ignores a worker count or heuristic instead.
    """

    __slots__ = ("function", "takes", "lenient")

    def __init__(self, function: str, takes: tuple[str, ...] = (), lenient: bool = False):
        self.function = function
        self.takes = takes
        self.lenient = lenient


ALGORITHM_TABLE: dict[str, Algorithm] = {
    "ndfs": Algorithm("ndfs", ("seed", "allred")),
    "swarm": Algorithm("swarm_ndfs", ("n_workers", "seed", "heuristic")),
    "lndfs": Algorithm("lndfs", ("n_workers", "seed", "heuristic", "store")),
    "endfs": Algorithm("endfs", ("n_workers", "seed", "store")),
    "nmc": Algorithm("nmc_ndfs", ("n_workers", "seed", "store")),
    "owcty": Algorithm("owcty", lenient=True),
}


class InvalidConfig(ValueError):
    """Raised for a run configuration the harness cannot execute."""


class InputNotFound(FileNotFoundError):
    """Raised when an input spec is neither a generator nor a readable text file."""


class VerdictCorrupt(RuntimeError):
    """Raised when a detector returns a lasso that fails validation."""


class RunConfig:
    """One benchmark cell: an algorithm on an input at a worker count.

    The constructor raises InvalidConfig for options the algorithm does
    not take and for fewer than one repeat.
    """

    __slots__ = ("algorithm", "input", "workers", "seed", "repeats", "heuristic", "allred")

    def __init__(self, algorithm: str, input: str, workers: int = 1, seed: int = 0, repeats: int = 5,
                 heuristic: bool = False, allred: bool = False):
        _checked(algorithm, workers, seed, heuristic, allred)
        if repeats < 1:
            raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
        self.algorithm = algorithm
        self.input = input
        self.workers = workers
        self.seed = seed
        self.repeats = repeats
        self.heuristic = heuristic
        self.allred = allred


# a BenchRecord's fields, in order, and the columns of its CSV row
_COLUMNS = ("input", "alg", "workers", "seed", "repeat", "verdict", "wall_time_s", "blue_exp", "red_exp",
            "repair_exp", "dangerous_count", "waits", "helper_joins", "owcty_rounds", "map_hits")
CSV_HEADER = ",".join(_COLUMNS)


class BenchRecord:
    """One completed run, one CSV row: its fields are the columns, in order."""

    __slots__ = _COLUMNS

    def __init__(self, cfg: RunConfig, repeat: int, seed: int, v: Verdict):
        st = v.stats
        self.input = cfg.input
        self.alg = cfg.algorithm
        self.workers = cfg.workers
        self.seed = seed
        self.repeat = repeat
        self.verdict = "CYCLE" if v.lasso is not None else "NO-CYCLE"
        self.wall_time_s = st.wall_time
        self.blue_exp = st.blue_expansions
        self.red_exp = st.red_expansions
        self.repair_exp = st.repair_expansions
        self.dangerous_count = st.extras.get("dangerous_count", 0)
        self.waits = st.waits
        self.helper_joins = st.helper_joins
        self.owcty_rounds = st.extras.get("owcty_rounds", 0)
        self.map_hits = st.extras.get("map_hits", 0)

    def to_row(self) -> list:
        return [f"{self.wall_time_s:.6f}" if c == "wall_time_s" else getattr(self, c) for c in _COLUMNS]


def _checked(name: str, workers: int, seed: int, heuristic: bool, allred: bool,
             store: ColorStore | None = None) -> Algorithm:
    """The table row of an algorithm, once its run options are checked.

    InvalidConfig for an unknown name, fewer than one worker, a negative
    seed, or an option the row does not take (see Algorithm).
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
        if workers > 1 and "n_workers" not in alg.takes:
            raise InvalidConfig(f"{name} is sequential, workers must be 1")
        if heuristic and "heuristic" not in alg.takes:
            raise InvalidConfig(f"heuristic ordering not supported by {name}")
    if allred and "allred" not in alg.takes:
        raise InvalidConfig(f"allred is not a flag of {name}")
    if store is not None and "store" not in alg.takes:
        raise InvalidConfig(f"{name} has no shared color store")
    return alg


def _digits(tok: str) -> int:
    # a spec's counts and seeds are ASCII digits, as the text format's ids:
    # int() would also take signs, underscores, spaces and other digits
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal integer: {tok!r}")
    return int(tok)


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
                return gen_lasso(_digits(stem), _digits(cyc), flag == "acc")
            if head == "random":
                n, deg, p, seed = parts
                return gen_random(_digits(n), float(deg), float(p), _digits(seed))
            width, depth, seed = parts
            return gen_needle(_digits(width), _digits(depth), _digits(seed))
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
    take, a store included.  A lasso that fails validate_lasso raises
    VerdictCorrupt.  A pre-built store may be passed for the shared-color
    algorithms to inspect colors afterwards.
    """
    if timeout is None:
        timeout = watchdog_secs()
    elif not math.isfinite(timeout):
        raise InvalidConfig(f"bad timeout {timeout}: not a finite number of seconds")
    alg = _checked(algorithm, workers, seed, heuristic, allred, store)
    deadline = perf_counter() + timeout if timeout > 0 else None
    given = {"n_workers": workers, "seed": seed, "heuristic": heuristic, "allred": allred, "store": store}
    detector = getattr(sys.modules[__package__], alg.function)
    try:
        v = detector(aut, deadline=deadline, **{k: given[k] for k in alg.takes})
    except WatchdogTimeout:
        raise WatchdogTimeout(f"{algorithm} exceeded {timeout:.1f}s budget") from None
    if v.lasso is not None and not validate_lasso(aut, v.lasso):
        raise VerdictCorrupt(f"{algorithm} returned an invalid lasso")
    return v


class SweepRow:
    """Aggregate over the repeats of one (input, algorithm, workers) cell."""

    __slots__ = ("input", "alg", "workers", "runs", "mean_wall_s", "speedup")

    def __init__(self, input: str, alg: str, workers: int, runs: int, mean_wall_s: float, speedup: float | None):
        self.input = input
        self.alg = alg
        self.workers = workers
        self.runs = runs
        self.mean_wall_s = mean_wall_s
        self.speedup = speedup


def sweep(
    configs: list[RunConfig],
    oracle_check: bool = False,
    timeout: float | None = None,
) -> tuple[list[BenchRecord], list[SweepRow]]:
    """Run a batch of configurations and aggregate per cell.

    Each configuration runs repeats times, with seed cfg.seed + k on
    repeat k; a lasso that fails validation raises VerdictCorrupt naming
    the input.  Speedup is the single-worker sequential mean over the
    cell mean on the same input; the baseline cell itself reports exactly
    1.0.  The baseline is the input's ndfs one-worker cell, else the
    algorithm's own one-worker cell; a cell with neither, or with a mean
    of 0, has no speedup (None, an empty field in the CSV).  With
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
        for k in range(cfg.repeats):
            seed = cfg.seed + k
            try:
                v = execute(aut, cfg.algorithm, cfg.workers, seed, cfg.heuristic, cfg.allred, timeout=timeout)
            except VerdictCorrupt as e:
                raise VerdictCorrupt(f"{e} on {cfg.input}") from None
            r = BenchRecord(cfg, k, seed, v)
            if oracle_check and (r.verdict == "CYCLE") != oracle[cfg.input]:
                raise VerdictCorrupt(f"{cfg.algorithm} disagrees with the SCC oracle on {cfg.input}")
            records.append(r)

    cells: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        cells.setdefault((r.input, r.alg, r.workers), []).append(r)
    means = {key: math.fsum(r.wall_time_s for r in rows) / len(rows) for key, rows in cells.items()}

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
            speedup = None
        aggregates.append(SweepRow(inp, alg, workers, len(rows), means[(inp, alg, workers)], speedup))
    return records, aggregates


def write_csv(records: list[BenchRecord], path) -> None:
    import csv  # only bench writes CSV, so check never loads it

    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in records:
            w.writerow(r.to_row())


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        fh.write("input,alg,workers,runs,mean_wall_s,speedup\n")
        w = csv.writer(fh, lineterminator="\n")
        for r in rows:
            w.writerow([r.input, r.alg, r.workers, r.runs, f"{r.mean_wall_s:.6f}",
                        "" if r.speedup is None else f"{r.speedup:.4f}"])
