"""Multi-core nested search sharing red globally, everything else local.

Workers run the allred variant of the nested search with their own
cyan/blue/pink colors and permuted successor orders, pruning any state
the swarm has already proved safe (red).  Red is only published at
red-search backtrack; an accepting state keeps a counter of red searches
currently rooted at it, and the last one out waits for the counter to
drain before publishing, which keeps a half-finished sibling search from
being pruned into unsoundness.

The per-worker pass is exposed separately because the optimistic
detector reuses it verbatim for its repair stage, rooted at a dangerous
state instead of the initial one.
"""

from __future__ import annotations

from time import perf_counter

from .automaton import BuchiAutomaton, OrderKind, order_key, permute, state_hash
from .colors import (
    AwaitResult,
    CYAN,
    ColorStore,
    LOCAL_BLUE,
    PINK,
    RED,
    ReporterSlot,
    WHITE,
)
from .ndfs import _pick_fresh, _splice
from .results import Lasso, Verdict, WorkerStats, WorkStats
from .swarm import run_workers


def lndfs_pass(
    aut: BuchiAutomaton,
    store: ColorStore,
    ws: WorkerStats,
    *,
    root: int | None = None,
    key_blue: int | None = None,
    key_red: int | None = None,
    visited: bytearray | None = None,
    stem_prefix: tuple[int, ...] = (),
    seen: bytearray | None = None,
):
    """One worker's shared-red nested search.  Returns Lasso, None, or STOPPED.

    None means this worker completed its pass without meeting a cycle;
    the caller decides whether that settles the run.  STOPPED (the
    sentinel from the sequential engine) means the termination flag went
    up mid-search.
    """
    from .ndfs import STOPPED

    n = aut.num_states
    post = aut.edges
    amask = aut.accept_mask
    flags = store.flags
    term = store.term
    set_flag = store.set_flag
    counter = store.counter_adjust
    colors = bytearray(n)
    blue_exp = red_exp = waits = 0
    maxd = 0
    if root is None:
        root = aut.init

    def expand(s: int, key) -> list[int]:
        lst = post[s]
        if key is not None and len(lst) > 1:
            lst = permute(lst, state_hash(key, s))
        if visited is not None and lst is post[s]:
            lst = list(lst)
        return lst

    try:
        if flags[root] & RED:
            return None
        colors[root] = CYAN
        blue_exp += 1
        if visited is not None:
            visited[root] = 1
        if seen is not None:
            seen[root] = 1
        frames = [[root, expand(root, key_blue), 0, True, None]]
        maxd = 1
        while frames:
            if term.stopped:
                return STOPPED
            f = frames[-1]
            pend = f[4]
            if pend is not None:
                f[4] = None
                if not flags[pend] & RED:
                    f[3] = False
            todo = f[1]
            if visited is None:
                i = f[2]
                if i < len(todo):
                    t = todo[i]
                    f[2] = i + 1
                else:
                    t = -1
            else:
                t = _pick_fresh(todo, visited)
            if t >= 0:
                s = f[0]
                c = colors[t]
                if c == CYAN and (amask[s] or amask[t]):
                    bpath = [fr[0] for fr in frames]
                    ti = bpath.index(t)
                    return _splice(stem_prefix, bpath, ti, bpath[ti:], amask)
                if c == WHITE and not flags[t] & RED:
                    colors[t] = CYAN
                    blue_exp += 1
                    if visited is not None:
                        visited[t] = 1
                    if seen is not None:
                        seen[t] = 1
                    f[4] = t
                    frames.append([t, expand(t, key_blue), 0, True, None])
                    if len(frames) > maxd:
                        maxd = len(frames)
                elif not flags[t] & RED:
                    f[3] = False
                continue

            s = f[0]
            if f[3]:  # every successor came back red
                set_flag(s, RED)
            elif amask[s]:
                counter(s, 1)
                colors[s] = PINK
                red_exp += 1
                rframes = [[s, expand(s, key_red), 0]]
                while rframes:
                    if term.stopped:
                        return STOPPED
                    rf = rframes[-1]
                    rtodo = rf[1]
                    if visited is None:
                        i = rf[2]
                        if i < len(rtodo):
                            t = rtodo[i]
                            rf[2] = i + 1
                        else:
                            t = -1
                    else:
                        t = _pick_fresh(rtodo, visited)
                    if t < 0:
                        rframes.pop()
                        u = rf[0]
                        if amask[u]:
                            if counter(u, -1) != 0:
                                waits += 1
                                if store.await_zero(u) is AwaitResult.TERMINATED:
                                    return STOPPED
                        set_flag(u, RED)
                        continue
                    c = colors[t]
                    if c == CYAN:
                        bpath = [fr[0] for fr in frames]
                        rpath = [rr[0] for rr in rframes]
                        ti = bpath.index(t)
                        return _splice(stem_prefix, bpath, ti, bpath[ti:] + rpath[1:], amask)
                    if c != PINK and not flags[t] & RED:
                        colors[t] = PINK
                        red_exp += 1
                        if seen is not None:
                            seen[t] = 1
                        rframes.append([t, expand(t, key_red), 0])
                        d = len(frames) + len(rframes)
                        if d > maxd:
                            maxd = d
            colors[s] = LOCAL_BLUE
            frames.pop()
        return None
    finally:
        ws.blue_expansions += blue_exp
        ws.red_expansions += red_exp
        ws.waits += waits
        if maxd > ws.max_stack_depth:
            ws.max_stack_depth = maxd


def lndfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    heuristic: bool = False,
    store: ColorStore | None = None,
) -> Verdict:
    """Shared-red multi-core detector.

    Worker 0 explores in canonical order, the rest under seeded
    permutations.  Pass a pre-built ColorStore to inspect colors after
    the run or to terminate it externally.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    reporter = ReporterSlot(store.term)
    visited = bytearray(aut.num_states) if heuristic else None
    stats = [WorkerStats() for _ in range(n_workers)]

    def body(w: int):
        res = lndfs_pass(
            aut,
            store,
            stats[w],
            key_blue=None if w == 0 else order_key(w, seed, OrderKind.BLUE),
            key_red=None if w == 0 else order_key(w, seed, OrderKind.RED),
            visited=visited,
        )
        if isinstance(res, Lasso):
            reporter.claim(w, res)

    t0 = perf_counter()
    run_workers(n_workers, body, store.term)
    work = WorkStats(stats, perf_counter() - t0)
    if reporter.worker is None:
        return Verdict(None, work)
    return Verdict(reporter.lasso, work, winner=reporter.worker)
