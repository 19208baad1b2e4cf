"""Nested depth-first search for accepting cycles: the engine every detector runs.

The blue search colors states cyan on the stack and done once finished;
an edge into a cyan state closes a cycle on the stack, reported at once
when either endpoint is accepting.  Backtracking an accepting state runs
a nested red search; an edge into a cyan state there is a cycle through
the red root.  A call enters each state at most once in blue and once in
red, so its expansions never exceed twice the number of states.

Each call is handed, once, the byte plane whose set states stop the
blue search: a private array (ndfs, swarm, the repairs of endfs), or
the ColorStore plane of RED (lndfs), of SAFE (the repairs of nmc) or of
BLUE (endfs and the main passes of nmc).  Publishing a flag is a plain
store of 1 into its plane.  A call also picks one of two red searches:

- allred (LNDFS): a state whose successors all came back blocked is
  blocked itself, and the red search publishes the blocking flag at
  backtrack.  An accepting root counts the red searches rooted at it,
  and the last one out waits for the rest before publishing, which
  keeps a half-finished sibling search from being pruned into
  unsoundness.
- optimistic (ENDFS): blue backtrack publishes BLUE.  The red search
  marks the accepting states it meets uncleared as DANGEROUS, promotes
  its candidates to RED except dangerous ones, and hands a dangerous
  root to the caller's repair, along with the blue stack that reached
  it.  A repair is itself a call of this engine given that stem, which
  roots it at the stem's end and books its expansions as repair work.

On a private array both reduce to the sequential algorithm: allred is
the allred extension of ndfs and optimistic is plain ndfs.  A private
call has a single plane, which serves as both the blocking and the red
one.

The search is a generator, and race drives the workers' searches in
turns in one thread.  A racing search (one with siblings or under a
deadline) yields every 64 successor reads, blue or red; any search
yields while it waits for sibling red searches to drain an accept
counter, and runs a repair with yield from, so the repair's own turns
pass through.  Between yields a worker runs alone, so no step sees a
sibling's step half done and a run repeats exactly.  A run ends by
closing the searches still live, which unwinds each at the yield where
it waits; the search itself reads no stop flag.

Three costs stay off the hot path.  A search counts steps toward a yield
only when race says it is racing; a lone worker with no deadline reads
nothing but its own frames and finishes in one turn.  Each frame holds
an iterator over its successors, picked once when the state is pushed: a
list iterator, or under the fresh-successor bias (--heuristic, prefer
successors no worker has visited yet) a generator that consumes a copy
of the list.  A for loop reads the iterator of the top frame, kept in
locals: a push saves the top on the stack and breaks back to the loop
over it, and the loop's else pops the parent back, so a step that
pushes nothing costs no call and none indexes the stack.  A racing
search ticks once per successor read, the read that finds the list
exhausted included, before the frame's first read and at the end of each
step that pushes nothing; so each yield falls just before a read, under
the bias before its pick.  A list of zero or one successors has nothing
to reorder, so it is iterated straight from the automaton without a hash
or a copy, as is every list of a canonical search without the bias.  And
a permuted search hashes and permutes a list only when at least two of
its successors are live when the state is pushed, that is, can still
change the search.  A successor is live when it is cyan, or neither
colored dead nor set in the plane that stops the search.  In blue that
plane is the blocking one and dead is LOCAL_BLUE, or no color at all
under allred, whose check reads each successor as it is iterated.  In
red the plane is the blocking one under allred and RED otherwise, and
dead is PINK; the optimistic searches color nothing pink, so there live
means white and unblocked in blue and not red in red.

Otherwise the list is searched in canonical order, with the same result
as the permuted one.  Flag planes only gain flags and colors are
private, so a successor that is not live when the list is built stays
so, and iterating over it does nothing; with at most one live successor,
where it sits among the others cannot matter.
"""

from __future__ import annotations

import sys
from time import perf_counter

from .automaton import BuchiAutomaton, permute, state_hash, worker_keys
from .colors import CYAN, DANGEROUS, LOCAL_BLUE, PINK, RED, WHITE, ColorStore
from .results import Lasso, Verdict, WorkerStats, WorkStats, check_deadline


def _fresh(todo: list[int], visited: bytearray):
    """Consume todo under the fresh-successor bias.

    Yields the first globally unvisited entry left in todo, falling back
    to the first remaining one.  Each pick is made when the search asks
    for the next successor, so the bias sees discoveries made after the
    list was built.
    """
    while todo:
        for k, t in enumerate(todo):
            if not visited[t]:
                break
        else:
            k = 0
        yield todo.pop(k)


def _order(s, succs, key, colors, stop, dead, visited):
    """The successors of s, just pushed, in the order to search them.

    They are permuted under key only when at least two are live: cyan, or
    neither colored dead nor set in stop, the plane that stops this
    search.  With visited the result is a _fresh generator over a list of
    its own, else a list.
    """
    out = succs
    if key is not None:
        live = False
        for t in succs:
            c = colors[t]
            if c == CYAN or c != dead and not stop[t]:
                if live:
                    out = permute(succs, state_hash(key, s))
                    break
                live = True
    if visited is None:
        return out
    return _fresh(list(out) if out is succs else out, visited)


def _splice(stem_prefix, frames, rframes, top, t, amask) -> Lasso:
    """The lasso closed by an edge from top, the searching state, into the cyan state t.

    The blue frames, then the red ones (rooted at the blue top, none in
    blue), then top spell the path from the search's root; the cycle runs
    along it from t, the stem is stem_prefix followed by it up to t.
    """
    path = [fr[0] for fr in frames] + [rf[0] for rf in rframes] + [top]
    ti = path.index(t)
    cyc = path[ti:]
    stem = tuple(path[: ti + 1])
    if stem_prefix:
        stem = tuple(stem_prefix[:-1]) + stem
    ai = next(i for i, q in enumerate(cyc) if amask[q])
    return Lasso(stem, tuple(cyc), ai)


def nested_search(
    aut: BuchiAutomaton,
    ws: WorkerStats,
    *,
    store: ColorStore | None = None,
    block: bytearray | None = None,
    allred: bool = False,
    colors: bytearray | None = None,
    keys: tuple[int, int] | None = None,
    visited: bytearray | None = None,
    stem: tuple[int, ...] = (),
    racing: bool = False,
    repair=None,
):
    """One worker's nested search, a generator that returns a Lasso or None.

    block is the byte plane whose set states stop the blue search: a
    store plane (RED, BLUE or SAFE) or a private one, fresh when None.
    With a store the red search publishes to its RED and DANGEROUS
    planes; without one block marks red as well.  colors and block may
    come from an earlier call (the repairs of endfs reuse them across
    roots); a root already entered or blocked returns None without work.
    allred picks the counter-protected red search over the optimistic
    one.  keys is a (blue, red) pair from worker_keys, or None for
    canonical order.  visited is the shared discovery bitset for the
    fresh-successor bias.  racing says the search takes turns under race,
    so it yields every 64 successor reads.
    repair(stem) is a generator like this one that re-examines the
    dangerous root at the end of stem, the blue stack from the initial
    state, and returns a Lasso, or None when the root is clean.  A call
    given a stem is such a repair: it searches from stem[-1], reports
    its lassos through stem, and books its expansions in ws as
    repair_expansions.  The counters reach ws when the search returns or
    is closed.
    """
    n = aut.num_states
    post = aut.edges
    amask = aut.accept_mask
    shared = store is not None
    blk = bytearray(n) if block is None else block
    red, dng = (store.plane(RED), store.plane(DANGEROUS)) if shared else (blk, None)
    if colors is None:
        colors = bytearray(n)
    # The optimistic red search marks what it entered in pink, apart from
    # colors: a shared search may enter states this worker has not
    # finished, and those must stay open to its blue search.  A private
    # search marks them red at once instead, since alone nothing it meets
    # is dangerous and its promotion is certain.
    pink = bytearray(n) if shared else red
    rooted = bool(stem)
    root = stem[-1] if rooted else aut.init
    key_blue, key_red = (None, None) if keys is None else keys
    blue_exp = red_exp = waits = dangerous = 0
    maxd = ws.max_stack_depth

    # A successor list shorter than cut is searched straight from post:
    # with no keys and no bias nothing reorders it, and a list of 0-1
    # successors has no order to change.
    cut = sys.maxsize if keys is None and visited is None else 2
    # A blue successor colored LOCAL_BLUE is done, unless allred, which
    # checks it as it is iterated.  The allred red search stops at blocked
    # states, the optimistic one at red states; only allred colors pink.
    dead_blue = -1 if allred else LOCAL_BLUE
    stop_red = blk if allred else red

    try:
        if colors[root] != WHITE or blk[root]:
            return None  # already cleared
        colors[root] = CYAN
        blue_exp += 1
        if visited is not None:
            visited[root] = 1
        # top frames in locals: blue s, it, clear (all successors so far came back blocked),
        # red rs, rit; the frames below them in frames and in rframes, which is empty between red searches
        succ = post[root]
        if len(succ) >= cut:
            succ = _order(root, succ, key_blue, colors, blk, dead_blue, visited)
        s, it, clear = root, iter(succ), True
        frames, rframes = [], []
        maxd = max(maxd, 1)
        tick = 0
        while True:
            # a tick per successor read: here before the frame's first, and
            # after each step that pushes nothing, before the next
            if racing:
                tick += 1
                if not tick & 63:
                    yield  # the other workers' turn, or race's deadline check
            for t in it:
                c = colors[t]
                if c == CYAN and (amask[s] or amask[t]):
                    # early detection: the blue stack from t to s is a cycle
                    return _splice(stem, frames, (), s, t, amask)
                if c == WHITE and not blk[t]:
                    colors[t] = CYAN
                    blue_exp += 1
                    if visited is not None:
                        visited[t] = 1
                    succ = post[t]
                    if len(succ) >= cut:
                        succ = _order(t, succ, key_blue, colors, blk, dead_blue, visited)
                    frames.append((s, it, clear))
                    s, it, clear = t, iter(succ), True
                    if len(frames) >= maxd:
                        maxd = len(frames) + 1
                    break
                if allred and not blk[t]:
                    clear = False
                if racing:
                    tick += 1
                    if not tick & 63:
                        yield
            else:
                # successors exhausted: backtrack s
                colors[s] = LOCAL_BLUE
                if allred:
                    if clear:  # every successor came back blocked
                        blk[s] = 1
                    elif amask[s]:
                        # counter-protected red search, rooted at s
                        if shared:
                            store.counter_adjust(s, 1)
                        colors[s] = PINK
                        red_exp += 1
                        succ = post[s]
                        if len(succ) >= cut:
                            succ = _order(s, succ, key_red, colors, stop_red, PINK, visited)
                        rs, rit = s, iter(succ)
                        while True:
                            if racing:
                                tick += 1
                                if not tick & 63:
                                    yield
                            for t in rit:
                                c = colors[t]
                                if c == CYAN:
                                    # cycle: blue stack t..s, red stack s..rs, edge back to t
                                    return _splice(stem, frames, rframes, rs, t, amask)
                                if c != PINK and not blk[t]:
                                    assert not amask[t], "red search reached an unprocessed accepting state"
                                    colors[t] = PINK
                                    red_exp += 1
                                    succ = post[t]
                                    if len(succ) >= cut:
                                        succ = _order(t, succ, key_red, colors, stop_red, PINK, visited)
                                    rframes.append((rs, rit))
                                    rs, rit = t, iter(succ)
                                    d = len(frames) + len(rframes) + 2
                                    if d > maxd:
                                        maxd = d
                                    break
                                if racing:
                                    tick += 1
                                    if not tick & 63:
                                        yield
                            else:
                                if shared and amask[rs] and store.counter_adjust(rs, -1) != 0:
                                    waits += 1
                                    while store.counter_value(rs):
                                        yield  # sibling red searches rooted at rs
                                blk[rs] = 1
                                if not rframes:
                                    break
                                rs, rit = rframes.pop()
                else:
                    if shared:
                        blk[s] = 1
                    if amask[s]:
                        # optimistic red search; candidates collected for promotion
                        cand = [s] if shared else None
                        pink[s] = 1
                        red_exp += 1
                        succ = post[s]
                        if len(succ) >= cut:
                            succ = _order(s, succ, key_red, colors, stop_red, PINK, visited)
                        rs, rit = s, iter(succ)
                        while True:
                            if racing:
                                tick += 1
                                if not tick & 63:
                                    yield
                            for t in rit:
                                if colors[t] == CYAN:
                                    return _splice(stem, frames, rframes, rs, t, amask)
                                if not red[t]:
                                    if amask[t]:
                                        # met an uncleared accepting state: poison it.
                                        # Alone, post order has cleared every one.  The
                                        # count is exact: one worker runs between yields.
                                        assert shared, "red search reached an unprocessed accepting state"
                                        if not dng[t]:
                                            dng[t] = 1
                                            dangerous += 1
                                    if not pink[t]:
                                        pink[t] = 1
                                        if shared:
                                            cand.append(t)
                                        red_exp += 1
                                        succ = post[t]
                                        if len(succ) >= cut:
                                            succ = _order(t, succ, key_red, colors, stop_red, PINK, visited)
                                        rframes.append((rs, rit))
                                        rs, rit = t, iter(succ)
                                        d = len(frames) + len(rframes) + 2
                                        if d > maxd:
                                            maxd = d
                                        break
                                if racing:
                                    tick += 1
                                    if not tick & 63:
                                        yield
                            else:
                                if not rframes:
                                    break
                                rs, rit = rframes.pop()
                        if shared:
                            for r in cand:
                                if r == s or not dng[r]:
                                    red[r] = 1
                            if dng[s]:
                                res = yield from repair(tuple(fr[0] for fr in frames) + (s,))
                                if res is not None:
                                    return res
                if not frames:
                    return None
                t = s
                s, it, clear = frames.pop()
                if allred and not blk[t]:
                    clear = False  # the parent's allred conjunction: t came back unblocked
    finally:
        if rooted:
            ws.repair_expansions += blue_exp + red_exp
        else:
            ws.blue_expansions += blue_exp
            ws.red_expansions += red_exp
        ws.waits += waits
        ws.dangerous_marks += dangerous
        if maxd > ws.max_stack_depth:
            ws.max_stack_depth = maxd


def race(n_workers: int, body, deadline: float | None = None) -> Verdict:
    """Race the searches body(w, stats, racing) of n_workers workers to the first lasso.

    body returns a generator like nested_search's, which yields to give
    the other workers their turn and returns a Lasso or None.  racing is
    true when the search must yield: it has siblings, or a deadline
    needs the clock read between its turns.  The workers take turns in
    worker order in this thread, so a run repeats exactly; before each
    round a perf_counter() past deadline raises WatchdogTimeout.  The
    first Lasso claims the verdict; a no-cycle verdict needs every worker
    to finish its pass.  Once the verdict falls, on a timeout or on an
    error in any worker, every search still live is closed.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    racing = n_workers > 1 or deadline is not None
    winner = lasso = None
    stats = [WorkerStats() for _ in range(n_workers)]
    t0 = perf_counter()
    live = {}
    try:
        live = {w: body(w, stats[w], racing) for w in range(n_workers)}
        while live and winner is None:
            check_deadline(deadline)
            for w, search in list(live.items()):
                try:
                    next(search)
                except StopIteration as done:
                    del live[w]
                    if isinstance(done.value, Lasso):
                        winner, lasso = w, done.value
                        break
    finally:
        for search in live.values():
            search.close()
    return Verdict(lasso, WorkStats(stats, perf_counter() - t0), winner=winner)


def ndfs(
    aut: BuchiAutomaton,
    seed: int | None = None,
    allred: bool = False,
    deadline: float | None = None,
) -> Verdict:
    """Sequential accepting-cycle detector.

    seed picks worker 0's blue and red successor permutations under it
    (canonical order when None).  allred enables the extension that
    promotes a state to red when every successor came back red, skipping
    provably redundant red searches.  A run still going at deadline (a
    perf_counter() value; the bench watchdog sets one) raises
    WatchdogTimeout.
    """
    keys = None if seed is None else worker_keys(0, seed)
    return race(
        1, lambda w, ws, racing: nested_search(aut, ws, allred=allred, keys=keys, racing=racing), deadline
    )
