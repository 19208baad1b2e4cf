#!/usr/bin/env python3
"""Benchmark every detector and the `cyclone check` command on seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-layered --seed 1 --seconds 55 --trace 0

The program is imported from ./src of the checkout and nowhere else.  A
run builds its inputs from --seed (timed as setup_s), then repeats whole
rounds until --seconds are used up.  One round runs the detector cells
(traced runs add the two-worker cells) over the workload's fixed
instance x detector-seed grid, interleaved per pair, and then runs
`cyclone check FILE --alg ndfs --oracle` in a child process on each of
the workload's check files.  Every verdict, every lasso and every
printed lasso is checked against the construction.  A metric is the
median over rounds of its per-round total.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, and the
run's spans go to perfbench/out/trace-WORKLOAD-SEED.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# (cell, algorithm, workers) in the order each grid pair runs them.
CELLS = (
    ("ndfs", "ndfs", 1), ("swarm_w1", "swarm", 1), ("lndfs_w1", "lndfs", 1),
    ("endfs_w1", "endfs", 1), ("nmc_w1", "nmc", 1), ("owcty", "owcty", 1),
)
# Two-worker times swing with how fast the operating system hands the
# interpreter lock between threads, far more than a tenth from one run to
# the next, so these cells run in traced runs only and report per layer.
W2_CELLS = (
    ("swarm_w2", "swarm", 2), ("lndfs_w2", "lndfs", 2), ("endfs_w2", "endfs", 2), ("nmc_w2", "nmc", 2),
)
SETUP_REPEATS = 5
# The host's speed moves by up to a third from one minute to the next, in
# every cell at once.  Each round therefore also times the benchmark's own
# reference walk, and every end-to-end time is scaled to the host speed at
# which that walk costs the workload's ref_walk_ns per state.
WALK_STATES = 400_000  # reference-walk states per round
CHILD_TIMEOUT_S = 60.0  # keeps a run with a hung child inside its time limit
# The child runs the console entry point.  Its peak resident size is read
# from its own VmHWM at exit: the rusage of wait4 would not do, because
# Linux carries the parent's resident size into a spawned child's maximum.
CLI = """
import atexit, os

def _peak():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_FILE"], "w") as fh:
        fh.write(kb)

atexit.register(_peak)
from cyclone.cli import entry
entry()
"""
ONE_STATE = "states 1\ninit 0\naccepting\n"
ONE_STATE_INSTANCE = workloads.Instance("one-state", 1, 0, frozenset(), [[]], 1, None)


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list[workloads.Instance]]  # from the run's --seed
    detector_seeds: tuple[int, ...]
    check_files: int  # the first instances, written out for `cyclone check`
    ref_walk_ns: float  # reference-walk cost per state at the reference speed


WORKLOADS = {
    "verify-layered": Workload(
        "verify-layered",
        lambda seed: [workloads.layered(seed * 1000 + i, 24, 250, 0.5) for i in range(4)],
        detector_seeds=(0, 1),
        check_files=2,
        ref_walk_ns=900.0,
    ),
    "hunt-needle": Workload(
        "hunt-needle",
        lambda seed: [workloads.needle(seed, 32, 250, p) for p in workloads.needle_positions(seed, 32)],
        detector_seeds=(0, 1),
        check_files=4,
        ref_walk_ns=550.0,
    ),
}


def reference_walk(edges: list[list[int]], init: int) -> int:
    """Depth-first walk over the benchmark's own edge lists; returns states entered.

    Plain interpreted work of the same kind as a detector's blue search
    (frame lists, a color bytearray, successor indexing) that no change to
    the program can touch, so its time measures the host alone.
    """
    color = bytearray(len(edges))
    color[init] = 1
    frames = [[init, 0]]
    entered = 1
    while frames:
        f = frames[-1]
        succs = edges[f[0]]
        i = f[1]
        if i < len(succs):
            f[1] = i + 1
            t = succs[i]
            if not color[t]:
                color[t] = 1
                entered += 1
                frames.append([t, 0])
        else:
            frames.pop()
    return entered


def load_program():
    """Import the program from this checkout's src, refusing any other copy."""
    if not (SRC / "cyclone" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclone
    import cyclone.paths

    if Path(cyclone.__file__).resolve().parent != (SRC / "cyclone").resolve():
        raise SystemExit(f"error: imported cyclone from {cyclone.__file__}, not {SRC}")
    return cyclone


class Run:
    """State of one benchmark run: inputs, per-round figures, outcome counts."""

    def __init__(self, cy, wl: Workload, seed: int, tracer: Tracer):
        self.cy = cy
        self.wl = wl
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.rounds: list[dict[str, float]] = []
        self.rss_mb: list[float] = []
        self.setup_parts: list[dict[str, float]] = []
        self.env = dict(os.environ, PERFBENCH_PEAK_FILE=str(OUT / "check.peak"), PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    # -- set-up -------------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Generate, construct and write the inputs once.

        Returns its wall time and the reference-walk cost per state taken
        right after it.
        """
        tr = self.tracer
        t0 = perf_counter()
        span = tr.open("setup", t0)
        insts = self.wl.make(self.seed)
        t1 = perf_counter()
        tr.add("setup.generate", t0, t1, span)
        auts, construct = [], 0.0
        for inst in insts:
            edges = [list(e) for e in inst.edges]  # the program gets its own lists
            c0 = perf_counter()
            auts.append(self.cy.BuchiAutomaton(inst.num_states, inst.init, inst.accepting, edges))
            c1 = perf_counter()
            construct += c1 - c0
            tr.add("automaton.construct", c0, c1, span)
        files, to_text = [], 0.0
        for i in range(self.wl.check_files):
            c0 = perf_counter()
            text = auts[i].to_text()
            c1 = perf_counter()
            path = OUT / f"{self.wl.name}-{self.seed}-{i}.aut"
            path.write_text(text)
            c2 = perf_counter()
            to_text += c1 - c0
            tr.add("automaton.to_text", c0, c1, span)
            tr.add("setup.write", c1, c2, span)
            files.append(path)
        t2 = perf_counter()
        tr.close(span, t2)
        self.setup_parts.append({"construct": construct, "to_text": to_text})
        self.insts, self.auts, self.files = insts, auts, files
        pairs = len(insts) * len(self.wl.detector_seeds)
        self.walks = max(1, round(WALK_STATES / (pairs * insts[0].reachable)))
        walked, w0 = 0, perf_counter()
        while walked < WALK_STATES:
            for inst in insts:
                walked += reference_walk(inst.edges, inst.init)
        return t2 - t0, (perf_counter() - w0) / walked * 1e9

    # -- one round ----------------------------------------------------------

    def _fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)

    def _wrong(self, exc: checks.CheckFailed) -> None:
        self.wrong.append(str(exc))
        print(f"WRONG {exc}", file=sys.stderr)

    def round(self) -> None:
        cy, tr = self.cy, self.tracer
        fig: dict[str, float] = {}

        def bump(key: str, v: float) -> None:
            fig[key] = fig.get(key, 0.0) + v

        r0 = perf_counter()
        rspan = tr.open("round", r0)
        for inst, aut in zip(self.insts, self.auts):
            for dseed in self.wl.detector_seeds:
                pspan = tr.open("pair", perf_counter(), rspan)
                for cell, alg, w in CELLS + W2_CELLS if tr.enabled else CELLS:
                    self.attempted += 1
                    t0 = perf_counter()
                    try:
                        v = cy.execute(aut, alg, w, dseed, timeout=0)
                    except Exception as exc:  # noqa: BLE001 - counted and reported
                        self._fail(f"{cell} on {inst.name} seed {dseed}", exc)
                        continue
                    t1 = perf_counter()
                    bump(cell + "_s", t1 - t0)
                    try:
                        checks.check_verdict(inst, f"{cell} seed {dseed}", v.lasso)
                    except checks.CheckFailed as exc:
                        self._wrong(exc)
                    self._count(fig, cell, inst, v)
                    tr.add(cell, t0, t1, pspan, instance=inst.name, seed=dseed,
                           exp=v.stats.total_expansions)
                    del v
                w0 = perf_counter()
                for _ in range(self.walks):
                    fig["walked"] = fig.get("walked", 0) + reference_walk(inst.edges, inst.init)
                w1 = perf_counter()
                bump("walk_s", w1 - w0)
                tr.add("reference_walk", w0, w1, pspan, walks=self.walks)
                tr.close(pspan, w1)
        for inst, path in zip(self.insts, self.files):
            t = self._check_child(inst, path, rspan)
            if t is not None:
                bump("check_s", t)
        if tr.enabled:
            self._layers(fig, rspan)
        tr.close(rspan, perf_counter())
        self.rounds.append(fig)

    def _count(self, fig, cell: str, inst, v) -> None:
        st = v.stats
        per = [x.blue_expansions + x.red_expansions + x.repair_expansions for x in st.workers]
        c = fig.setdefault(cell + "#", {"n": 0, "exp": 0, "reach": 0, "max": 0, "win": 0,
                                         "costs": [], "waits": 0, "dangerous": 0,
                                         "repair": 0, "joins": 0, "rounds": 0})
        c["n"] += 1
        c["exp"] += st.total_expansions
        c["reach"] += inst.reachable
        c["max"] += max(per)
        c["win"] += per[v.winner] if v.winner is not None else 0
        c["costs"].append(per[0])
        c["waits"] += st.waits
        c["dangerous"] += st.extras.get("dangerous_count", 0)
        c["repair"] += st.repair_expansions
        c["joins"] += st.helper_joins
        c["rounds"] += st.extras.get("owcty_rounds", 0)

    def _check_child(self, inst, path: Path, parent: int, name: str = "cli.check") -> float | None:
        """Run `cyclone check` on path in a child; returns its wall time or None."""
        self.attempted += 1
        out, err, peak = OUT / "check.stdout", OUT / "check.stderr", OUT / "check.peak"
        peak.unlink(missing_ok=True)
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = perf_counter()
            p = subprocess.Popen([sys.executable, "-c", CLI, "check", str(path), "--alg", "ndfs", "--oracle"],
                                 stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
            killer.start()
            try:
                p.wait()  # blocks in waitpid; a timeout would poll
            finally:
                killer.cancel()
            t1 = perf_counter()
        self.tracer.add(name, t0, t1, parent, file=path.name, exit=p.returncode)
        if p.returncode != 0:
            self._fail(f"check on {path.name}", RuntimeError(
                f"exit {p.returncode}: {err.read_text().strip()[:200]}"))
            return None
        try:
            checks.check_cli_output(inst, out.read_text())
        except checks.CheckFailed as exc:
            self._wrong(exc)
        if name == "cli.check":
            self.rss_mb.append(int(peak.read_text()) / 1024.0)
        return t1 - t0

    # -- per-layer calls, traced runs only ------------------------------------

    def _layers(self, fig, rspan: int) -> None:
        cy, tr = self.cy, self.tracer

        def timed(name: str, fn, *args):
            self.attempted += 1
            t0 = perf_counter()
            try:
                res = fn(*args)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                self._fail(name, exc)
                return None
            t1 = perf_counter()
            fig[name] = fig.get(name, 0.0) + (t1 - t0)
            tr.add(name, t0, t1, rspan)
            return res

        for inst, path in zip(self.insts, self.files):
            text = path.read_text()
            aut = timed("automaton.parse_s", cy.parse_automaton, text)
            if aut is not None and (aut.num_states, aut.init, aut.accepting, aut.edges) != (
                    inst.num_states, inst.init, inst.accepting, inst.edges):
                self._wrong(checks.CheckFailed(f"parse of {path.name} differs from {inst.name}"))
        for inst, aut in zip(self.insts, self.auts):
            found = timed("oracle.scc_s", cy.has_accepting_cycle, aut)
            if found is not None and found != (inst.cycle is not None):
                self._wrong(checks.CheckFailed(f"oracle on {inst.name}: {found}"))
            reach = timed("paths.reach_s", cy.paths.reachable_from, aut, [aut.init])
            if reach is not None and len(reach) != inst.reachable:
                self._wrong(checks.CheckFailed(f"reachable_from on {inst.name}: {len(reach)} states"))
            mr = timed("owcty.map_s", cy.map_pass, aut)
            if mr is not None and mr.lasso is not None:
                try:
                    checks.check_verdict(inst, "map_pass", mr.lasso)
                except checks.CheckFailed as exc:
                    self._wrong(exc)
        one = OUT / "one-state.aut"
        if not one.exists():
            one.write_text(ONE_STATE)
        t = self._check_child(ONE_STATE_INSTANCE, one, rspan, "cli.startup")
        if t is not None:
            fig["cli.startup_s"] = t

    # -- results ------------------------------------------------------------

    def _median(self, fn) -> float:
        """Median over rounds of fn(round figures), skipping rounds without the figure."""
        vals = []
        for f in self.rounds:
            try:
                vals.append(fn(f))
            except KeyError:
                continue
        return statistics.median(vals) if vals else 0.0

    def end_to_end(self, setups: list[tuple[float, float]], scaled: bool = True) -> dict[str, dict]:
        """End-to-end figures, scaled to the reference host speed unless scaled=False."""
        ref = self.wl.ref_walk_ns

        def speed(walk_ns: float) -> float:
            return ref / walk_ns if scaled else 1.0

        def at_ref(key: str) -> float:
            return self._median(lambda f: f[key] * speed(f["walk_s"] / f["walked"] * 1e9))

        m = {"setup_s": (statistics.median(t * speed(ns) for t, ns in setups), "s")}
        for cell, _, _ in CELLS:
            m[cell + "_s"] = (at_ref(cell + "_s"), "s")
        m["check_s"] = (at_ref("check_s"), "s")
        m["check_rss_mb"] = (statistics.median(self.rss_mb) if self.rss_mb else 0.0, "MB")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def per_layer(self) -> dict[str, dict]:
        """Per-layer figures, as measured (not scaled to the reference speed)."""

        def med(key: str) -> float:
            return self._median(lambda f: f[key])

        def per_search(cell: str, key: str) -> float:
            return self._median(lambda f: f[cell + "#"][key] / f[cell + "#"]["n"])

        m = {
            "automaton.parse_s": (med("automaton.parse_s"), "s"),
            "automaton.construct_s": (statistics.median(p["construct"] for p in self.setup_parts), "s"),
            "automaton.to_text_s": (statistics.median(p["to_text"] for p in self.setup_parts), "s"),
            "cli.startup_s": (med("cli.startup_s"), "s"),
            "oracle.scc_s": (med("oracle.scc_s"), "s"),
            "paths.reach_s": (med("paths.reach_s"), "s"),
            "owcty.map_s": (med("owcty.map_s"), "s"),
            "owcty.rounds": (per_search("owcty", "rounds"), "count"),
            "owcty.exp": (per_search("owcty", "exp"), "count"),
            "ndfs.exp": (per_search("ndfs", "exp"), "count"),
            "host.walk_ns": (self._median(lambda f: f["walk_s"] / f["walked"] * 1e9), "ns"),
        }
        for cell in ("ndfs", "swarm_w1", "lndfs_w1", "endfs_w1", "nmc_w1"):
            m[f"{cell}.kexp_per_s"] = (self._median(lambda f: f[cell + "#"]["exp"] / 1e3 / f[cell + "_s"]), "kexp/s")
        for alg in ("swarm", "lndfs", "endfs", "nmc"):
            cell = f"{alg}_w2"
            m[f"{cell}_s"] = (med(cell + "_s"), "s")
            m[f"{cell}.work_ratio"] = (self._median(lambda f: f[cell + "#"]["exp"] / f[cell + "#"]["reach"]), "ratio")
            m[f"{cell}.max_worker_exp"] = (per_search(cell, "max"), "count")
        m["swarm_w2.winner_exp"] = (per_search("swarm_w2", "win"), "count")
        costs = self.rounds[-1]["swarm_w1#"]["costs"]
        m["stats.model_min2_exp"] = (self.cy.EmpiricalDistribution.from_samples(costs).expected_min(2), "count")
        m["lndfs_w2.waits"] = (per_search("lndfs_w2", "waits"), "count")
        for cell in ("endfs_w2", "nmc_w2"):
            m[f"{cell}.dangerous"] = (per_search(cell, "dangerous"), "count")
            m[f"{cell}.repair_exp"] = (per_search(cell, "repair"), "count")
        m["nmc_w2.helper_joins"] = (per_search("nmc_w2", "joins"), "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cy = load_program()
    # the switch interval `cyclone check` runs its detectors under
    sys.setswitchinterval(0.001)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer(bool(args.trace))
    run = Run(cy, WORKLOADS[args.workload], args.seed, tracer)

    setups = []
    for _ in range(SETUP_REPEATS):
        run.insts = run.auts = None
        gc.collect()
        setups.append(run.setup())
    # the inputs live for the whole run; keep the collector off them
    gc.collect()
    gc.freeze()

    start = perf_counter()
    while True:
        run.round()
        spent = perf_counter() - start
        if spent + spent / len(run.rounds) > args.seconds:
            break

    if args.trace:
        metrics = run.per_layer()
        summary = {"workload": args.workload, "seed": args.seed, "rounds": len(run.rounds),
                   "end_to_end": run.end_to_end(setups),
                   "end_to_end_unscaled": run.end_to_end(setups, scaled=False),
                   "self_time_s": tracer.self_times()}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", summary)
    else:
        metrics = run.end_to_end(setups)
    unscaled = {k: round(v["value"], 4) for k, v in run.end_to_end(setups, scaled=False).items()}
    print(f"rounds={len(run.rounds)} unscaled={json.dumps(unscaled)}", file=sys.stderr)
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
