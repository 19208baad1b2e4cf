"""Explicit-state Buchi automata: graph type, text format, successor orders.

A state space is a plain directed graph over integer state ids with one
initial state and a set of accepting states.  The successor lists keep the
order in which edges were declared (file order for parsed automata,
generation order for generated ones); that order is the canonical one, and
every worker-specific ordering is a seeded permutation of it.
"""

from __future__ import annotations

import random
import re

_M64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15

# Only spaces and tabs separate tokens.  An ASCII text can hold another
# character str.split() separates at only if it holds one of these (CR is
# allowed at a line's end only).
_ODD_ASCII_SPACE = "\r\x0b\x0c\x1c\x1d\x1e\x1f"
# the longest token or line an error message quotes in full
_QUOTE_CHARS = 40
# the bulk parser splits the trans lines in chunks of about this many
# characters, cut after an LF, so their tokens never all exist at once;
# at 64K a 6,000-state check peaked 0.6 MB higher, and smaller chunks
# saved at most 0.2 MB more
_CHUNK_CHARS = 1 << 14


class _LineError(ValueError):
    """A parse error at one line of the text format."""

    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class MalformedHeader(_LineError):
    """Header lines are missing, out of order, duplicated, or unparsable."""


class DanglingStateId(_LineError):
    """A state id outside [0, num_states) appeared in init/accepting/trans."""


class DuplicateEdge(_LineError):
    """The same (src, dst) pair was declared twice."""


class ZeroCycle(ValueError):
    """Lasso shapes need a cycle of at least one state."""


class BuchiAutomaton:
    """Finite automaton with accepting states and ordered successor lists.

    edges[s] lists the successors of s in canonical order; treat it as
    read-only.  accept_mask is a byte per state, 1 for an accepting one,
    for fast membership tests in inner loops.

    The constructor checks every id, every successor list for duplicates,
    and that edges has one list per state, raising ValueError otherwise.
    parse_automaton builds its result through _trusted instead, which
    skips these checks, made by the parser with their lines, copies the
    parser's successor lists to their exact length, and allocates the
    table of one list per state, after the parser's last check.  A parsed
    automaton holds one int object per state id: its successor lists and
    accepting set refer to it, not to an int per token.  Two automata are
    equal when their num_states, init, accepting and edges are; an
    automaton is mutable and unhashable.
    """

    __slots__ = ("num_states", "init", "accepting", "edges", "accept_mask")

    def __init__(self, num_states: int, init: int, accepting: frozenset[int], edges: list[list[int]]):
        n = num_states
        if n < 1:
            raise ValueError("automaton needs at least one state")
        if not (0 <= init < n):
            raise ValueError(f"init {init} out of range")
        if len(edges) != n:
            raise ValueError("edges must list successors for every state")
        mask = bytearray(n)
        for a in accepting:
            if not (0 <= a < n):
                raise ValueError(f"accepting state {a} out of range")
            mask[a] = 1
        for s, succs in enumerate(edges):
            if len(set(succs)) != len(succs):
                raise ValueError(f"duplicate successor in state {s}")
            for t in succs:
                if not (0 <= t < n):
                    raise ValueError(f"edge {s}->{t} out of range")
        self.num_states = num_states
        self.init = init
        self.accepting = accepting
        self.edges = edges
        self.accept_mask = mask

    @classmethod
    def _trusted(cls, num_states: int, init: int, accepting: frozenset[int], table: dict[int, list[int]]):
        """The automaton whose state s has the successors table[s][1:], none if s
        is not a key, checked as the constructor checks.

        table is _group's: table[s][0] is the int object of id s.  Each
        list is copied without that item, to its exact length, as it leaves
        table.  The table of num_states lists is allocated here, after the
        parser's last check, and nowhere else."""
        pop = table.pop
        aut = cls.__new__(cls)
        aut.num_states = num_states
        aut.init = init
        aut.accepting = accepting
        aut.edges = [succ[1:] if (succ := pop(s, None)) else [] for s in range(num_states)]
        aut.accept_mask = mask = bytearray(num_states)
        for a in accepting:
            mask[a] = 1
        return aut

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num_states, self.init, self.accepting, self.edges) == (
            other.num_states, other.init, other.accepting, other.edges)

    def __repr__(self) -> str:
        return (f"BuchiAutomaton(num_states={self.num_states!r}, init={self.init!r}, "
                f"accepting={self.accepting!r}, edges={self.edges!r})")

    @property
    def num_edges(self) -> int:
        return sum(len(x) for x in self.edges)

    def to_text(self) -> str:
        """Serialize to the canonical text form (LF line endings)."""
        lines = [f"states {self.num_states}", f"init {self.init}"]
        lines.append(" ".join(["accepting"] + [str(a) for a in sorted(self.accepting)]))
        for s, succs in enumerate(self.edges):
            for t in succs:
                lines.append(f"trans {s} {t}")
        return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> BuchiAutomaton:
    """Parse the line-oriented automaton format.

    Grammar, after stripping '#' comments and blank lines:
    a 'states N' line first, then 'init I', then 'accepting [id ...]',
    then any number of 'trans SRC DST' lines.  Ids are decimal, 0-based,
    ASCII digits only.  Lines end at LF; one CR before it is dropped, so
    CRLF files parse.  Tokens are separated by ASCII spaces and tabs
    only: any other whitespace before a line's '#' is an error.
    Raises MalformedHeader, DanglingStateId, or DuplicateEdge with the
    offending 1-based line number; the message quotes at most a short
    prefix of the offending token or line.

    A plain text (ASCII, no '#', no CR or other stray whitespace) first
    goes through a bulk path.  It takes the lines after the three headers
    in chunks of whole lines, about _CHUNK_CHARS characters each, and
    splits, checks and converts one chunk before it slices the next, so
    its transient memory is one chunk's tokens.  It groups the edges by
    source as it converts them, and checks for duplicates in those
    lists.  Any text it does not accept, valid or not, is parsed again by
    the line path, the only one that reports an error and its line.  Both
    paths hand their checked successor lists, keyed by source, to
    BuchiAutomaton._trusted.  It copies them into the table of one list
    per state, after every line is checked, without checking the ids,
    ranges and duplicates again.

    Both paths group the edges in one dict keyed by id (_table, _group).
    The first int object read of an id, an accepting one first, is the
    one every edge to that id refers to, so the automaton holds one int
    object per state id, not one per token.  What the paths allocate
    before the last check grows with the ids read, never with their
    values or the states header.
    """
    if text.isascii() and "#" not in text and not any(c in text for c in _ODD_ASCII_SPACE):
        aut = _parse_bulk(text)
        if aut is not None:
            return aut
    return _parse_lines(text)


def _parse_bulk(text: str) -> BuchiAutomaton | None:
    """The automaton of a plain, valid text whose first three lines are its headers; else None.

    The caller has checked that text is ASCII and holds no '#' and no
    whitespace but spaces, tabs and LF.  A duplicate edge is a repeat in
    one of the lists grouped by source, which the automaton copies.
    """
    i = text.find("\n")
    j = text.find("\n", i + 1)  # -1 when i is: there is no LF at all
    k = text.find("\n", j + 1) if j >= 0 else -1
    if k < 0:
        return None
    h_states, h_init, h_acc = text[:i].split(), text[i + 1:j].split(), text[j + 1:k].split()
    if (len(h_states) != 2 or h_states[0] != "states" or len(h_init) != 2 or h_init[0] != "init"
            or not h_acc or h_acc[0] != "accepting"):
        return None
    # int() takes an ASCII token with no sign and no underscore if and
    # only if it is all digits 0-9, and not past the interpreter's limit
    if any(c in text for c in "+-_"):
        return None
    try:
        n, init, *accepting = map(int, [h_states[1], h_init[1], *h_acc[1:]])
    except ValueError:
        return None
    del h_acc  # a str per accepting id, not needed while the edges are read
    if not (0 <= init < n) or (accepting and max(accepting) >= n):
        return None
    accepting = frozenset(accepting)
    table = _table(accepting)
    pos = k + 1
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK_CHARS - 1) + 1 or len(text)
        chunk = text[pos:end]
        pos = end
        # one 'trans' line per line of the chunk: every line then starts
        # with its own 'trans' and holds exactly three tokens
        lines = chunk.count("\n") + (not chunk.endswith("\n"))
        toks = chunk.split()
        if (len(toks) != 3 * lines or toks[::3].count("trans") != lines
                or not chunk.startswith("trans") or chunk.count("\ntrans") != lines - 1):
            return None
        srcs, dsts = toks[1::3], toks[2::3]
        del toks
        try:
            srcs = list(map(int, srcs))
            dsts = list(map(int, dsts))
        except ValueError:
            return None
        if max(srcs) >= n or max(dsts) >= n:
            return None
        _group(table, zip(srcs, dsts))
    for succ in table.values():
        # succ[0] is the id itself, not a successor
        if len(succ) > 2 and len(set(succ[1:])) != len(succ) - 1:
            return None
    return BuchiAutomaton._trusted(n, init, accepting, table)


def _table(accepting: frozenset[int]) -> dict[int, list[int]]:
    """The table _group starts from: a list per accepting id, holding only the id.

    A list gets its id by append, which leaves room for three successors;
    [a] would leave none, and its first append would size it for seven."""
    table: dict[int, list[int]] = {}
    for a in accepting:
        table[a] = x = []
        x.append(a)
    return table


def _group(table: dict[int, list[int]], edges) -> None:
    """Append the target of each edge (s, t) to table[s], where table[i] is [i, successors of i...].

    table[i][0] is the first int object of id i to enter table, and a
    target goes in as that object, so the lists, and the accepting set
    _table started them from, share one int object per id.  table grows
    with the ids read, never with their values.  A new list gets its id
    by append, as in _table."""
    get = table.get
    for s, t in edges:
        x = get(t)
        if x is None:
            x = table[t] = []
            x.append(t)
        y = get(s)
        if y is None:
            y = table[s] = []
            y.append(s)
        y.append(x[0])


def _quote(s: str) -> str:
    """repr(s), cut to a short prefix and its full length when s is long."""
    if len(s) <= _QUOTE_CHARS:
        return repr(s)
    return f"{s[:_QUOTE_CHARS]!r}... ({len(s)} characters)"


def _parse_lines(text: str) -> BuchiAutomaton:
    """parse_automaton's line path: every text, and every error with its line."""
    # rare, so files without such characters skip the per-line scan;
    # compiling the pattern raises a run's peak memory by about 0.1 MB
    stray_space = (not text.isascii() or any(c in text for c in _ODD_ASCII_SPACE)) and re.compile(r"[^\S \t]")
    # (line_no, tokens) for every meaningful line, raw numbering preserved;
    # a stray character raises here, before any header is read
    rows = []
    for no, raw in enumerate(text.split("\n"), start=1):
        # the CR comes off before the '#' split, so one right before a '#' is stray
        if stray_space and (stray := stray_space.search(raw.removesuffix("\r").split("#", 1)[0])):
            raise MalformedHeader(no, f"{stray.group()!r} in a line; only spaces and tabs separate tokens")
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((no, body.split()))

    if not rows:
        raise MalformedHeader(1, "empty input, expected 'states N'")

    def _int(no, tok, what):
        # ASCII digits only: int() would also take signs, underscores and
        # non-ASCII digits
        if not (tok.isascii() and tok.isdigit()):
            raise MalformedHeader(no, f"{what} is not a decimal integer: {_quote(tok)}")
        try:
            return int(tok)
        except ValueError:  # past the interpreter's limit on digits
            raise MalformedHeader(no, f"{what} has too many digits: {len(tok)}") from None

    no, toks = rows[0]
    if toks[0] != "states" or len(toks) != 2:
        raise MalformedHeader(no, f"expected 'states N', got {_quote(' '.join(toks))}")
    n = _int(no, toks[1], "state count")
    if n < 1:
        raise MalformedHeader(no, "state count must be at least 1")

    if len(rows) < 2:
        raise MalformedHeader(no, "missing 'init I' line")
    no, toks = rows[1]
    if toks[0] != "init" or len(toks) != 2:
        raise MalformedHeader(no, f"expected 'init I', got {_quote(' '.join(toks))}")
    init = _int(no, toks[1], "init state")
    if init >= n:
        raise DanglingStateId(no, f"init state {init} >= states {n}")

    if len(rows) < 3:
        raise MalformedHeader(no, "missing 'accepting' line")
    no, toks = rows[2]
    if toks[0] != "accepting":
        raise MalformedHeader(no, f"expected 'accepting [id ...]', got {_quote(' '.join(toks))}")
    accepting = set()
    for tok in toks[1:]:
        a = _int(no, tok, "accepting state")
        if a >= n:
            raise DanglingStateId(no, f"accepting state {a} >= states {n}")
        accepting.add(a)

    # every edge once, in file order; the table of lists comes after the
    # last check
    seen: dict[tuple[int, int], None] = {}
    for no, toks in rows[3:]:
        if toks[0] != "trans" or len(toks) != 3:
            raise MalformedHeader(no, f"expected 'trans SRC DST', got {_quote(' '.join(toks))}")
        s = _int(no, toks[1], "source state")
        t = _int(no, toks[2], "target state")
        if s >= n:
            raise DanglingStateId(no, f"source state {s} >= states {n}")
        if t >= n:
            raise DanglingStateId(no, f"target state {t} >= states {n}")
        if (s, t) in seen:
            raise DuplicateEdge(no, f"edge {s} -> {t} declared twice")
        seen[s, t] = None
    accepting = frozenset(accepting)
    table = _table(accepting)
    _group(table, seen)
    return BuchiAutomaton._trusted(n, init, accepting, table)


# ---------------------------------------------------------------------------
# Worker-specific successor orders.


def _mix(h: int) -> int:
    # splitmix64 finalizer; cheap and well distributed
    h &= _M64
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _M64
    return h ^ (h >> 31)


def worker_keys(worker_id: int, seed: int) -> tuple[int, int]:
    """The (blue, red) permutation keys of one worker under seed, fed to permute."""
    h = _mix(seed * _GOLD + worker_id)
    return _mix(h ^ 0xD1B54A32D192ED03), _mix(h ^ (2 * 0xD1B54A32D192ED03))


def permute(succs: list[int], key: int, s: int) -> list[int]:
    """State s's successors succs in the order of key: a Fisher-Yates shuffle
    driven by a hash of (key, s), so bijective, and fixed per state and key."""
    d = len(succs)
    if d <= 1:
        return succs
    h = _mix(key ^ ((s + 1) * _GOLD))
    if d == 2:
        return succs if h & 1 == 0 else [succs[1], succs[0]]
    out = list(succs)
    x = h | 1
    for i in range(d - 1, 0, -1):
        # xorshift64 step per swap
        x ^= (x << 13) & _M64
        x ^= x >> 7
        x ^= (x << 17) & _M64
        j = x % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Generators.  All deterministic in their arguments.


def gen_lasso(stem_len: int, cycle_len: int, accepting_on_cycle: bool) -> BuchiAutomaton:
    """Chain of stem_len states into a simple cycle of cycle_len states.

    Exactly one accepting state: the first cycle state when
    accepting_on_cycle, otherwise the init state.  A stem_len of 0 with
    accepting_on_cycle=False still gets one stem state so the accepting
    state stays off the cycle; every other shape has stem_len + cycle_len
    states.  Raises ZeroCycle when cycle_len < 1.
    """
    if cycle_len < 1:
        raise ZeroCycle(f"cycle_len must be >= 1, got {cycle_len}")
    if stem_len < 0:
        raise ValueError(f"stem_len must be >= 0, got {stem_len}")
    if stem_len == 0 and not accepting_on_cycle:
        stem_len = 1  # keep the accepting init off the cycle
    n = stem_len + cycle_len
    edges: list[list[int]] = [[] for _ in range(n)]
    for s in range(n - 1):
        edges[s].append(s + 1)
    edges[n - 1].append(stem_len)  # close the cycle
    accepting = frozenset({stem_len if accepting_on_cycle else 0})
    return BuchiAutomaton(n, 0, accepting, edges)


def gen_random(n: int, avg_out_degree: float, accept_prob: float, seed: int) -> BuchiAutomaton:
    """Random graph: each state draws round(avg_out_degree) uniform targets.

    Duplicate targets are dropped, so out-degrees may come out below the
    rounded average.  Each state is accepting with probability accept_prob.
    Init is state 0.  Deterministic in seed.  The draws run before any
    deadline exists, so a degree outside [0, n] is a ValueError.
    """
    if n < 1:
        raise ValueError(f"need at least one state, got {n}")
    if not (0 <= avg_out_degree <= n):  # NaN fails it too
        raise ValueError(f"avg_out_degree must be finite and in [0, {n}], got {avg_out_degree}")
    if not (0.0 <= accept_prob <= 1.0):
        raise ValueError(f"accept_prob must be in [0, 1], got {accept_prob}")
    rng = random.Random(seed)
    k = round(avg_out_degree)
    edges = []
    accepting = set()
    for s in range(n):
        targets = dict.fromkeys(rng.randrange(n) for _ in range(k))
        edges.append(list(targets))
        if rng.random() < accept_prob:
            accepting.add(s)
    return BuchiAutomaton(n, 0, frozenset(accepting), edges)


def gen_needle(width: int, depth: int, seed: int, with_cycle: bool = True) -> BuchiAutomaton:
    """Init fans out to width disjoint chains of depth states each.

    One seed-chosen chain ends in an accepting 2-cycle (the needle); every
    other chain ends in a deadlock.  with_cycle=False drops the edge that
    closes the 2-cycle, leaving the same graph with nothing to find.
    """
    if width < 1 or depth < 1:
        raise ValueError(f"width and depth must be >= 1, got {width}x{depth}")
    needle = random.Random(seed).randrange(width)
    n = 1 + width * depth + 2
    edges: list[list[int]] = [[] for _ in range(n)]
    u = 1 + width * depth  # accepting half of the 2-cycle
    v = u + 1
    for c in range(width):
        head = 1 + c * depth
        edges[0].append(head)
        for i in range(depth - 1):
            edges[head + i].append(head + i + 1)
        if c == needle:
            edges[head + depth - 1].append(u)
    edges[u].append(v)
    if with_cycle:
        edges[v].append(u)
    return BuchiAutomaton(n, 0, frozenset({u}), edges)
