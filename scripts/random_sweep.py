#!/usr/bin/env python3
"""Benchmark every detector over a grid of random graphs, cross-checked.

Builds a grid of random-graph inputs (sizes x accepting densities), runs
each algorithm at each worker count with several seeds, verifies every
verdict against the SCC oracle, and writes both the raw per-run records
and the per-cell aggregates to CSV.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclone import ALGORITHM_TABLE, RunConfig, sweep, write_csv, write_sweep_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="50,200,500")
    ap.add_argument("--probs", default="0.05,0.2")
    ap.add_argument("--degree", type=float, default=2.0)
    ap.add_argument("--graphs-per-cell", type=int, default=2)
    ap.add_argument("--workers", default="1,2,4,8")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--algs", default="ndfs,swarm,lndfs,endfs,nmc,owcty")
    ap.add_argument("-o", "--output", default="sweep_records.csv")
    ap.add_argument("--aggregate", default="sweep_agg.csv")
    args = ap.parse_args()

    sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    probs = [float(x) for x in args.probs.split(",") if x.strip()]
    counts = [int(x) for x in args.workers.split(",") if x.strip()]
    algs = [a for a in args.algs.split(",") if a.strip()]

    inputs = []
    for n in sizes:
        for p in probs:
            for g in range(args.graphs_per_cell):
                inputs.append(f"random:{n}:{args.degree}:{p}:{g}")

    configs = []
    for inp in inputs:
        for alg in algs:
            for w in counts if ALGORITHM_TABLE[alg].parallel else [1]:
                configs.append(RunConfig(alg, inp, workers=w,
                                         repeats=args.repeats))

    print(f"{len(inputs)} inputs, {len(configs)} configurations, "
          f"{sum(c.repeats for c in configs)} runs")
    records, aggregates = sweep(configs, oracle_check=True)
    write_csv(records, args.output)
    write_sweep_csv(aggregates, args.aggregate)
    print(f"records  -> {args.output}")
    print(f"averages -> {args.aggregate}")

    # quick on-screen view: slowest cells first
    worst = sorted(aggregates, key=lambda r: -r.mean_wall_s)[:10]
    print(f"\n{'input':<24} {'alg':<6} {'N':>2} {'mean wall s':>12} {'speedup':>8}")
    for r in worst:
        print(f"{r.input:<24} {r.alg:<6} {r.workers:>2} "
              f"{r.mean_wall_s:>12.6f} {r.speedup:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
