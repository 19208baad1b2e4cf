"""Nested depth-first search for accepting cycles, iterative and restartable.

The blue search colors states cyan on the stack and blue once done; an
edge into a cyan state closes a cycle on the stack, reported immediately
when either endpoint is accepting.  Backtracking an accepting state runs
the nested red search over blue territory; an edge into a cyan state
there is a cycle through the red root.  Every state is entered at most
once per search, so blue plus red expansions never exceed twice the
number of states.

One engine serves the plain sequential detector, each swarm worker, and
the repair stage of the optimistic multi-core detector; callers vary the
root, the successor permutation keys, and the color array they own.

Two costs stay off the hot path.  A search yields the interpreter only
when its caller says sibling workers race it; a lone worker still checks
its stop flag at every step but never sleeps.  A permuted search hashes
only states with at least two successors, because a list of zero or one
has no order to permute.
"""

from __future__ import annotations

from time import perf_counter
from time import sleep as _time_sleep

from .automaton import BuchiAutomaton, OrderKind, SuccessorOrder, order_key, permute, state_hash
from .results import Lasso, Verdict, WorkerStats, WorkStats

WHITE, CYAN, BLUE, RED = 0, 1, 2, 3


def _yield() -> None:
    # called every 64 steps by a racing search only.  A zero sleep is not
    # enough: the interpreter hands its lock back to the running thread
    # before sleeping waiters wake, starving siblings.  The sleep lasts
    # several times what it asks for, so a lone worker must not pay it.
    _time_sleep(1e-5)

# Sentinel return: the search unwound because the run was terminated.
STOPPED = object()


def _pick_fresh(todo: list[int], visited: bytearray) -> int:
    """Next successor under the fresh-successor bias, consuming it from todo.

    Takes the first globally unvisited entry in permuted order, falling
    back to the first remaining one.  Re-evaluated at every advance so the
    bias sees discoveries made after the list was built.
    """
    if not todo:
        return -1
    j = 0
    for k in range(len(todo)):
        if not visited[todo[k]]:
            j = k
            break
    return todo.pop(j)


def _splice(stem_prefix, bpath, ti, cyc, amask) -> Lasso:
    stem = tuple(bpath[: ti + 1])
    if stem_prefix:
        stem = tuple(stem_prefix[:-1]) + stem
    ai = next(i for i, q in enumerate(cyc) if amask[q])
    return Lasso(stem, tuple(cyc), ai)


def nested_search(
    aut: BuchiAutomaton,
    ws: WorkerStats,
    *,
    root: int | None = None,
    allred: bool = False,
    key_blue: int | None = None,
    key_red: int | None = None,
    visited: bytearray | None = None,
    stop=None,
    stem_prefix: tuple[int, ...] = (),
    seen: bytearray | None = None,
    colors: bytearray | None = None,
    racing: bool = False,
):
    """One worker-owned nested search.  Returns a Lasso, None, or STOPPED.

    colors may be a partially explored array from an earlier call (repair
    reuses one array across roots); a non-white root is already cleared
    and returns None without work.  visited is the shared discovery bitset
    for the fresh-successor bias, stop a termination flag checked at every
    step, seen an optional bitset recording every state this call enters,
    stem_prefix a path from the true initial state to the root for lassos
    reported out of rooted calls.  racing says sibling workers run beside
    this one, so a search with a stop flag yields to them now and then.
    """
    n = aut.num_states
    post = aut.edges
    amask = aut.accept_mask
    if colors is None:
        colors = bytearray(n)
    if root is None:
        root = aut.init
    blue_exp = red_exp = 0
    maxd = ws.max_stack_depth

    def expand(s: int) -> list[int]:
        lst = post[s]
        if key_blue is not None and len(lst) > 1:
            lst = permute(lst, state_hash(key_blue, s))
        if visited is not None and lst is post[s]:
            lst = list(lst)  # _pick_fresh consumes the list
        return lst

    def expand_red(s: int) -> list[int]:
        lst = post[s]
        if key_red is not None and len(lst) > 1:
            lst = permute(lst, state_hash(key_red, s))
        if visited is not None and lst is post[s]:
            lst = list(lst)
        return lst

    try:
        if colors[root] != WHITE:
            return None  # already cleared by an earlier call on these colors
        colors[root] = CYAN
        blue_exp += 1
        if visited is not None:
            visited[root] = 1
        if seen is not None:
            seen[root] = 1
        # frame: [state, todo, idx, allred, pending-child]
        frames = [[root, expand(root), 0, True, None]]
        maxd = max(maxd, 1)
        tick = 0
        while frames:
            if stop is not None:
                if stop.stopped:
                    return STOPPED
                if racing:
                    tick += 1
                    if not tick & 63:
                        # give racing workers a fair slice of the interpreter
                        _yield()
            f = frames[-1]
            pend = f[4]
            if pend is not None:
                # the allred conjunction reads the child after its subtree
                f[4] = None
                if colors[pend] != RED:
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
                    # early detection: the blue stack from t to s is a cycle
                    bpath = [fr[0] for fr in frames]
                    ti = bpath.index(t)
                    return _splice(stem_prefix, bpath, ti, bpath[ti:], amask)
                if c == WHITE:
                    colors[t] = CYAN
                    blue_exp += 1
                    if visited is not None:
                        visited[t] = 1
                    if seen is not None:
                        seen[t] = 1
                    f[4] = t
                    frames.append([t, expand(t), 0, True, None])
                    if len(frames) > maxd:
                        maxd = len(frames)
                elif allred and c != RED:
                    f[3] = False
                continue

            # successors exhausted: backtrack s
            s = f[0]
            if allred and f[3]:
                colors[s] = RED
            elif amask[s]:
                # nested red search over blue territory, rooted at s
                colors[s] = RED
                red_exp += 1
                if seen is not None:
                    seen[s] = 1
                rframes = [[s, expand_red(s), 0]]
                while rframes:
                    if stop is not None and stop.stopped:
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
                        continue
                    c = colors[t]
                    if c == CYAN:
                        # cycle: blue stack t..s, red stack s..current, edge back to t
                        bpath = [fr[0] for fr in frames]
                        rpath = [rr[0] for rr in rframes]
                        ti = bpath.index(t)
                        return _splice(stem_prefix, bpath, ti, bpath[ti:] + rpath[1:], amask)
                    if c == BLUE:
                        assert not amask[t], "red search reached an unprocessed accepting state"
                        colors[t] = RED
                        red_exp += 1
                        if seen is not None:
                            seen[t] = 1
                        rframes.append([t, expand_red(t), 0])
                        d = len(frames) + len(rframes)
                        if d > maxd:
                            maxd = d
            else:
                colors[s] = BLUE
            frames.pop()
        return None
    finally:
        ws.blue_expansions += blue_exp
        ws.red_expansions += red_exp
        if maxd > ws.max_stack_depth:
            ws.max_stack_depth = maxd


def ndfs(aut: BuchiAutomaton, order: SuccessorOrder | None = None, allred: bool = False) -> Verdict:
    """Sequential accepting-cycle detector.

    order picks the successor permutation (canonical order when None); its
    kind field is ignored because the blue and red orders both derive from
    the same worker and seed.  allred enables the extension that promotes
    a state to red when every successor came back red, skipping provably
    redundant red searches.
    """
    if order is None:
        kb = kr = None
    else:
        kb = order_key(order.worker_id, order.seed, OrderKind.BLUE)
        kr = order_key(order.worker_id, order.seed, OrderKind.RED)
    ws = WorkerStats()
    t0 = perf_counter()
    res = nested_search(aut, ws, allred=allred, key_blue=kb, key_red=kr)
    stats = WorkStats([ws], perf_counter() - t0)
    if res is None:
        return Verdict(None, stats)
    return Verdict(res, stats, winner=0)
