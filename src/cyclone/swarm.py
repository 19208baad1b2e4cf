"""Embarrassingly parallel nested search: isolated workers, permuted orders.

Every worker runs the full sequential algorithm on its own color array;
they share nothing but the termination flag, the first-winner slot, and
(optionally) the discovery bitset behind the fresh-successor bias.  The
first worker to find a cycle claims the verdict and stops the rest; a
no-cycle verdict is only reported once every worker finished its pass.
"""

from __future__ import annotations

import threading
from time import perf_counter

from .automaton import BuchiAutomaton, OrderKind, order_key
from .colors import ReporterSlot, TerminationFlag
from .ndfs import nested_search
from .results import Lasso, Verdict, WorkerStats, WorkStats


def run_workers(n_workers: int, body, term: TerminationFlag):
    """Run body(w) on n_workers threads; re-raise the first worker error.

    A single worker runs inline.  Any exception terminates the run before
    propagating, so sibling workers unwind instead of running to
    completion against a broken shared state.
    """
    if n_workers == 1:
        body(0)
        return
    errors: list[BaseException] = []
    go = threading.Event()

    def wrapped(w: int):
        go.wait()  # no head start for early-spawned workers
        try:
            body(w)
        except BaseException as exc:  # noqa: BLE001 - reported to the caller
            errors.append(exc)
            term.set()

    threads = [threading.Thread(target=wrapped, args=(w,), daemon=True) for w in range(n_workers)]
    for th in threads:
        th.start()
    go.set()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]


def swarm_ndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    term: TerminationFlag | None = None,
) -> Verdict:
    """Swarmed nested search with seeded per-worker successor permutations.

    With one worker and no heuristic this is exactly the sequential
    detector under the same seed.  term may inject an external
    termination flag (the bench watchdog uses this).
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    term = term or TerminationFlag()
    reporter = ReporterSlot(term)
    visited = bytearray(aut.num_states) if heuristic else None
    stats = [WorkerStats() for _ in range(n_workers)]

    def body(w: int):
        res = nested_search(
            aut,
            stats[w],
            key_blue=order_key(w, seed, OrderKind.BLUE),
            key_red=order_key(w, seed, OrderKind.RED),
            visited=visited,
            stop=term,
            racing=n_workers > 1,
        )
        if isinstance(res, Lasso):
            reporter.claim(w, res)

    t0 = perf_counter()
    run_workers(n_workers, body, term)
    work = WorkStats(stats, perf_counter() - t0)
    if reporter.worker is None:
        return Verdict(None, work)
    return Verdict(reporter.lasso, work, winner=reporter.worker)
