#!/usr/bin/env python3
"""Race randomized searchers on needle graphs and test the minimum-cost model.

A needle graph hides one accepting cycle at the bottom of a wide forest
of dead-end chains, so a depth-first searcher's cost depends almost
entirely on how early its successor permutation tries the needle branch.
That makes the cost of N independent searchers the minimum of N draws
from the single-searcher cost distribution.

The script samples that distribution (swarm with one worker, many
seeds), feeds it to the order-statistics model, then runs actual races
and compares the winner's expansion count against the model's
expected minimum.
"""

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclone import EmpiricalDistribution, gen_needle, swarm_ndfs


def searcher_cost(verdict) -> int:
    w = verdict.stats.workers[verdict.winner]
    return w.blue_expansions + w.red_expansions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=16)
    ap.add_argument("--depth", type=int, default=2000)
    ap.add_argument("--graph-seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=40,
                    help="single-worker runs used to fit the cost distribution")
    ap.add_argument("--races", type=int, default=15,
                    help="independent races per worker count")
    ap.add_argument("--workers", default="1,2,4,8,16")
    args = ap.parse_args()

    aut = gen_needle(args.width, args.depth, args.graph_seed)
    print(f"needle width={args.width} depth={args.depth} "
          f"states={aut.num_states}")

    samples = []
    for s in range(args.samples):
        v = swarm_ndfs(aut, 1, seed=s)
        assert v.cycle_found
        samples.append(float(searcher_cost(v)))
    dist = EmpiricalDistribution.from_samples(samples)
    print(f"single-searcher cost: min={min(samples):.0f} "
          f"median={statistics.median(samples):.0f} max={max(samples):.0f}")
    print()
    print(f"{'N':>3} {'model E[min]':>13} {'model speedup':>14} "
          f"{'race median':>12} {'race speedup':>13}")

    base = dist.expected_min(1)
    for n in (int(x) for x in args.workers.split(",") if x.strip()):
        wins = []
        for r in range(args.races):
            # offset the race seeds past the sampling seeds
            v = swarm_ndfs(aut, n, seed=10_000 + r)
            assert v.cycle_found
            wins.append(searcher_cost(v))
        med = statistics.median(wins)
        print(f"{n:>3} {dist.expected_min(n):>13.1f} {dist.speedup(n):>14.2f} "
              f"{med:>12.1f} {base / med if med else float('inf'):>13.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
