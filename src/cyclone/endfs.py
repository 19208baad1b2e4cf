"""Optimistic multi-core nested search with shared blue and red.

Workers share the blue (done) and red (safe) flags and keep only the
stack colors cyan and pink to themselves, so the state space is
traversed roughly once by the whole swarm instead of once per worker.
The price of sharing blue is that a red search may run before some
accepting state it meets has been cleared; such states are marked
dangerous, the candidate set of the red search is promoted to red except
for dangerous members (the root always is), and a dangerous root is
re-checked by a repair search that cannot be fooled: here a sequential
nested search per worker over private repair colors that persist across
repairs, which caps any worker's total work at four visits per state.

A single worker degenerates to the sequential algorithm: post order then
guarantees every accepting state a red search meets is already red, so
nothing is ever marked dangerous and the repair stage never runs.
"""

from __future__ import annotations

from time import perf_counter

from .automaton import BuchiAutomaton, OrderKind, order_key, permute, state_hash
from .colors import BLUE, ColorStore, DANGEROUS, RED, ReporterSlot
from .ndfs import STOPPED, nested_search, _splice
from .results import Lasso, Verdict, WorkerStats, WorkStats
from .swarm import run_workers

_NONE, _CYAN, _PINK = 0, 1, 2


def endfs_pass(
    aut: BuchiAutomaton,
    store: ColorStore,
    ws: WorkerStats,
    w: int,
    seed: int,
    repair_fn,
):
    """One worker's optimistic pass.  Returns Lasso, None, or STOPPED.

    repair_fn(root, stem) re-examines a dangerous red root; it returns a
    Lasso to report a cycle, STOPPED to unwind, or None when the root is
    clean.  The stem argument is this worker's blue-stack path from init
    to the root, for counterexamples reported out of the repair.
    """
    n = aut.num_states
    post = aut.edges
    amask = aut.accept_mask
    flags = store.flags
    term = store.term
    set_flag = store.set_flag
    key_blue = None if w == 0 else order_key(w, seed, OrderKind.BLUE)
    key_red = None if w == 0 else order_key(w, seed, OrderKind.RED)
    local = bytearray(n)
    blue_exp = red_exp = dangerous_marks = 0
    maxd = 0

    def expand(s: int, key) -> list[int]:
        lst = post[s]
        if key is not None and len(lst) > 1:
            lst = permute(lst, state_hash(key, s))
        return lst

    try:
        root = aut.init
        local[root] = _CYAN
        blue_exp += 1
        frames = [[root, expand(root, key_blue), 0]]
        maxd = 1
        while frames:
            if term.stopped:
                return STOPPED
            f = frames[-1]
            todo = f[1]
            i = f[2]
            if i < len(todo):
                t = todo[i]
                f[2] = i + 1
                s = f[0]
                lt = local[t]
                if lt == _CYAN and (amask[s] or amask[t]):
                    bpath = [fr[0] for fr in frames]
                    ti = bpath.index(t)
                    return _splice((), bpath, ti, bpath[ti:], amask)
                if lt != _CYAN and not flags[t] & BLUE:
                    local[t] = _CYAN
                    blue_exp += 1
                    frames.append([t, expand(t, key_blue), 0])
                    if len(frames) > maxd:
                        maxd = len(frames)
                continue

            s = f[0]
            local[s] = _NONE  # cyan off before blue goes up
            set_flag(s, BLUE)
            if amask[s]:
                # optimistic red search; candidates collected for promotion
                cand = [s]
                local[s] = _PINK
                red_exp += 1
                rframes = [[s, expand(s, key_red), 0]]
                while rframes:
                    if term.stopped:
                        return STOPPED
                    rf = rframes[-1]
                    rtodo = rf[1]
                    ri = rf[2]
                    if ri >= len(rtodo):
                        rframes.pop()
                        continue
                    t = rtodo[ri]
                    rf[2] = ri + 1
                    if local[t] == _CYAN:
                        bpath = [fr[0] for fr in frames]
                        rpath = [rr[0] for rr in rframes]
                        ti = bpath.index(t)
                        return _splice((), bpath, ti, bpath[ti:] + rpath[1:], amask)
                    ft = flags[t]
                    if amask[t] and not ft & RED:
                        # met an uncleared accepting state: poison it
                        if not set_flag(t, DANGEROUS):
                            dangerous_marks += 1
                    if not flags[t] & RED and local[t] != _PINK:
                        local[t] = _PINK
                        cand.append(t)
                        red_exp += 1
                        rframes.append([t, expand(t, key_red), 0])
                        d = len(frames) + len(rframes)
                        if d > maxd:
                            maxd = d
                for r in cand:
                    if r == s or not flags[r] & DANGEROUS:
                        set_flag(r, RED)
                if flags[s] & DANGEROUS:
                    stem = tuple(fr[0] for fr in frames)
                    res = repair_fn(s, stem)
                    if res is not None:
                        return res
            frames.pop()
        return None
    finally:
        ws.blue_expansions += blue_exp
        ws.red_expansions += red_exp
        ws.dangerous_marks += dangerous_marks
        if maxd > ws.max_stack_depth:
            ws.max_stack_depth = maxd


def _popcount(mask: bytearray) -> int:
    return sum(mask)


def endfs(
    aut: BuchiAutomaton,
    n_workers: int = 1,
    seed: int = 0,
    store: ColorStore | None = None,
) -> Verdict:
    """Shared-blue/shared-red optimistic detector with sequential repair.

    Verdict extras carry dangerous_count (states ever marked dangerous)
    and repair_states (distinct states the repair stage ever entered).
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if store is None:
        store = ColorStore(aut.num_states, aut.accepting)
    reporter = ReporterSlot(store.term)
    stats = [WorkerStats() for _ in range(n_workers)]
    repair_seen = bytearray(aut.num_states)

    def body(w: int):
        # repair colors persist across this worker's repairs: the whole
        # repair stage costs it at most two visits per state
        repair_colors = bytearray(aut.num_states)
        repair_seed = seed ^ 0x52455041  # separate permutation family for repairs
        rkb = order_key(w, repair_seed, OrderKind.BLUE)
        rkr = order_key(w, repair_seed, OrderKind.RED)

        def repair(root: int, stem: tuple[int, ...]):
            rw = WorkerStats()
            res = nested_search(
                aut,
                rw,
                root=root,
                key_blue=rkb,
                key_red=rkr,
                stop=store.term,
                stem_prefix=stem,
                seen=repair_seen,
                colors=repair_colors,
                racing=n_workers > 1,
            )
            stats[w].repair_expansions += rw.blue_expansions + rw.red_expansions
            if rw.max_stack_depth > stats[w].max_stack_depth:
                stats[w].max_stack_depth = rw.max_stack_depth
            return res

        res = endfs_pass(aut, store, stats[w], w, seed, repair)
        if isinstance(res, Lasso):
            reporter.claim(w, res)

    t0 = perf_counter()
    run_workers(n_workers, body, store.term)
    work = WorkStats(stats, perf_counter() - t0)
    work.extras["dangerous_count"] = sum(s.dangerous_marks for s in stats)
    work.extras["repair_states"] = _popcount(repair_seen)
    if reporter.worker is None:
        return Verdict(None, work)
    return Verdict(reporter.lasso, work, winner=reporter.worker)
