"""Command line front end.

Subcommands: gen writes an automaton, check decides one input, bench
runs a grid of configurations to CSV, dist evaluates the racing model
on a sample of completion times.

Exit codes: 0 done, 1 usage or input problem, 2 verdict disagrees with
the oracle (or fails validation), 3 watchdog timeout.  Exit 1 covers the
typed errors of configuration and input, and any OSError or ValueError
raised while reading inputs, parsing samples or lists, or writing
outputs; the same exceptions raised anywhere else, inside a detector
run say, are not input problems and propagate.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .automaton import DanglingStateId, DuplicateEdge, MalformedHeader, ZeroCycle
from .bench import (
    ALGORITHM_TABLE,
    InputNotFound,
    InvalidConfig,
    RunConfig,
    VerdictCorrupt,
    WatchdogTimeout,
    execute,
    resolve_input,
    sweep,
    write_csv,
    write_sweep_csv,
)
from .colors import ColorStore
from .oracle import has_accepting_cycle


class _UsageError(Exception):
    pass


class _FileError(Exception):
    """A user's file or list that cannot be read, parsed or written."""


@contextmanager
def _user_data() -> Iterator[None]:
    """Report an OSError or ValueError of the enclosed step as a _FileError."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise _FileError(e) from e


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for oracle disagreement, so usage errors
    # must not go through argparse's default SystemExit(2)
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cyclone", description="accepting-cycle detection workbench")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="write an automaton from a generator spec")
    g.add_argument("spec", help="lasso:STEM:CYC:acc|noacc, random:N:DEG:P:SEED, needle:W:D:SEED, or a file")
    g.add_argument("-o", "--output", default="-", help="output file, - for stdout")

    c = sub.add_parser("check", help="decide one input with one detector")
    c.add_argument("input")
    c.add_argument("--alg", default="ndfs", choices=ALGORITHM_TABLE)
    c.add_argument("--workers", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--heuristic", action="store_true", help="prefer globally unvisited successors")
    c.add_argument("--allred", action="store_true", help="skip nested passes under fully red subtrees")
    c.add_argument("--oracle", action="store_true", help="cross-check against the SCC decision")
    c.add_argument("--dump-colors", metavar="PATH", help="write the shared color table as CSV")
    c.add_argument("--timeout", type=float, default=None, help="override the watchdog budget in seconds")

    b = sub.add_parser("bench", help="run a grid of configurations")
    b.add_argument("inputs", nargs="+")
    b.add_argument("--algs", default="ndfs", help="comma-separated algorithm list")
    b.add_argument("--workers", default="1", help="comma-separated worker counts")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--heuristic", action="store_true")
    b.add_argument("--oracle", action="store_true", help="cross-check every verdict")
    b.add_argument("-o", "--output", default="bench.csv", help="per-run records CSV")
    b.add_argument("--aggregate", default=None, help="also write per-cell aggregates CSV")
    b.add_argument("--timeout", type=float, default=None)

    d = sub.add_parser("dist", help="racing model over a sample of times")
    d.add_argument("file", help="bench records CSV or one number per line")
    d.add_argument("--n", dest="ns", default="1,2,4,8,16", help="comma-separated swarm sizes")
    d.add_argument("--alg", default=None, help="filter CSV rows by algorithm")
    d.add_argument("--input", default=None, help="filter CSV rows by input")
    d.add_argument("-o", "--output", default=None, help="also write the table as CSV")
    return p


def _cmd_gen(args) -> int:
    aut = resolve_input(args.spec)
    text = aut.to_text()
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with _user_data():
            Path(args.output).write_text(text)
    return 0


def _cmd_check(args) -> int:
    aut = resolve_input(args.input)
    store = ColorStore(aut.num_states, aut.accepting) if args.dump_colors else None
    v = execute(aut, args.alg, args.workers, args.seed, args.heuristic,
                args.allred, timeout=args.timeout, store=store)
    if args.dump_colors:
        with _user_data():
            Path(args.dump_colors).write_text(store.dump_csv())
    if v.lasso is not None:
        print("CYCLE")
        print("stem:", " ".join(map(str, v.lasso.stem)))
        print("cycle:", " ".join(map(str, v.lasso.cycle)))
    else:
        print("NO-CYCLE")
    if args.oracle:
        if has_accepting_cycle(aut) != (v.lasso is not None):
            print("oracle disagrees with the verdict", file=sys.stderr)
            return 2
    return 0


def _cmd_bench(args) -> int:
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    with _user_data():
        workers = [int(w) for w in args.workers.split(",") if w.strip()]
    if not algs or not workers:
        raise InvalidConfig("need at least one algorithm and one worker count")
    configs = []
    for inp in args.inputs:
        for alg in algs:
            takes = ALGORITHM_TABLE[alg].takes if alg in ALGORITHM_TABLE else ()
            counts = workers if "n_workers" in takes else [1]
            for w in dict.fromkeys(counts):
                configs.append(RunConfig(
                    alg, inp, workers=w, seed=args.seed, repeats=args.repeats,
                    heuristic=args.heuristic and "heuristic" in takes,
                ))
    records, rows = sweep(configs, oracle_check=args.oracle, timeout=args.timeout)
    with _user_data():
        write_csv(records, args.output)
        if args.aggregate:
            write_sweep_csv(rows, args.aggregate)
    print(f"{len(records)} runs -> {args.output}")
    return 0


def _read_samples(path: str, alg: str | None, inp: str | None) -> list[float]:
    lines = Path(path).read_text().splitlines()
    # a bench CSV may follow blank lines; its header is the first text
    head = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
    if head < len(lines) and lines[head].startswith("input,alg,"):
        import csv  # only dist reads CSV, so check never loads it

        out = []
        reader = csv.DictReader(lines[head:])
        for row in reader:
            if alg is not None and row["alg"] != alg:
                continue
            if inp is not None and row["input"] != inp:
                continue
            if row.get("wall_time_s") is None:
                raise ValueError(f"{path} line {head + reader.line_num}: no wall_time_s field")
            out.append(float(row["wall_time_s"]))
        return out
    return [float(tok) for line in lines for tok in line.split("#", 1)[0].split()]


def _cmd_dist(args) -> int:
    from .stats import EmpiricalDistribution, ZeroTime  # only dist runs the racing model

    with _user_data():
        dist = EmpiricalDistribution.from_samples(_read_samples(args.file, args.alg, args.input))
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    if not ns:
        raise _UsageError(f"need at least one swarm size, got {args.ns!r}")
    if any(n < 1 for n in ns):
        raise _UsageError(f"swarm sizes must be >= 1, got {args.ns}")
    try:
        rows = [(n, dist.expected_min(n), dist.min_stddev(n), dist.speedup(n)) for n in ns]
    except ZeroTime as e:  # the expected minimum at some N is zero
        raise _FileError(e) from e
    # g-style: a sample of 1e200 or of 1e-9 prints in a few digits
    for n, em, sd, sp in rows:
        print(f"N={n} expected={em:.6g} stddev={sd:.6g} speedup={sp:.6g}")
    if args.output:
        with _user_data(), open(args.output, "w") as fh:
            fh.write("n,expected_min,stddev,speedup\n")
            for n, em, sd, sp in rows:
                fh.write(f"{n},{em:.10g},{sd:.10g},{sp:.10g}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "gen":
            return _cmd_gen(args)
        if args.cmd == "check":
            return _cmd_check(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
        return _cmd_dist(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (InvalidConfig, InputNotFound, MalformedHeader, DanglingStateId,
            DuplicateEdge, ZeroCycle, _FileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except VerdictCorrupt as e:
        print(f"verdict error: {e}", file=sys.stderr)
        return 2
    except WatchdogTimeout as e:
        print(f"timeout: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
