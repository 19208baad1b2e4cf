"""Text format, generators, and successor permutations."""

import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from cyclone import (
    BuchiAutomaton,
    DanglingStateId,
    DuplicateEdge,
    MalformedHeader,
    ZeroCycle,
    gen_lasso,
    gen_needle,
    gen_random,
    has_accepting_cycle,
    parse_automaton,
    permute,
    worker_keys,
)
from cyclone import automaton
from cyclone.automaton import _parse_bulk, _parse_lines
from strategies import automata, layered


def test_serialize_frozen():
    text = gen_lasso(2, 3, True).to_text()
    assert text == (
        "states 5\ninit 0\naccepting 2\n"
        "trans 0 1\ntrans 1 2\ntrans 2 3\ntrans 3 4\ntrans 4 2\n"
    )


def test_parse_skips_comments_and_blanks():
    a = parse_automaton("# title\n\nstates 2\ninit 1\naccepting 0 1\ntrans 1 0  # loop back\n")
    assert a.num_states == 2
    assert a.init == 1
    assert a.accepting == frozenset({0, 1})
    assert a.edges == [[], [0]]


@pytest.mark.parametrize(
    "text,exc,line",
    [
        ("", MalformedHeader, 1),
        ("init 0\nstates 2\naccepting\n", MalformedHeader, 1),
        ("states 0\ninit 0\naccepting\n", MalformedHeader, 1),
        # a valid header and nothing after it: "missing 'init I' line"
        ("states 3\n", MalformedHeader, 1),
        ("states 2\ninit -1\naccepting\n", MalformedHeader, 2),
        ("states 2\ninit 5\naccepting\n", DanglingStateId, 2),
        ("states 2\ninit 0\naccepting 3\n", DanglingStateId, 3),
        # raw line numbers: the comment line still counts
        ("# lead\nstates 2\ninit 0\naccepting\ntrans 0 2\n", DanglingStateId, 5),
        ("states 2\ninit 0\naccepting\ntrans 0 1\ntrans 0 1\n", DuplicateEdge, 5),
        ("states 2\ninit 0\naccepting\ntrans 0\n", MalformedHeader, 4),
        ("states 2\ninit 0\naccepting\ntrans 2 0\n", DanglingStateId, 4),
        # three tokens a line and one 'trans' a line on average, but line 4
        # holds both: only the bulk path's line-shape check turns it away
        ("states 2\ninit 0\naccepting\ntrans 0 1 trans\n1 0\n", MalformedHeader, 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, exc, line):
    with pytest.raises(exc) as ei:
        parse_automaton(text)
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}:")


# every position of a number in the text format, and its line
_ID_SLOTS = [
    ("states {}\ninit 0\naccepting\n", 1),
    ("states 20\ninit {}\naccepting\n", 2),
    ("states 20\ninit 0\naccepting 1 {}\n", 3),
    ("states 20\ninit 0\naccepting\ntrans 0 1\ntrans {} 0\n", 5),
    ("states 20\ninit 0\naccepting\ntrans 0 1\ntrans 0 {}\n", 5),
]


@pytest.mark.parametrize("tok", ["+3", "1_0", "\u0663", "-0", "+1"])
@pytest.mark.parametrize("template,line", _ID_SLOTS)
def test_ids_are_ascii_digit_strings(tok, template, line):
    # int() would take each of these (a sign, an underscore, an
    # Arabic-Indic digit), and every one is below the state count
    with pytest.raises(MalformedHeader) as ei:
        parse_automaton(template.format(tok))
    assert ei.value.line == line and repr(tok) in str(ei.value)


@pytest.mark.parametrize("tok", ["0" * 5000, "1" * 4301])
@pytest.mark.parametrize("template,line", _ID_SLOTS)
def test_overlong_ids_are_typed_errors(tok, template, line):
    # past 4,300 digits int() raises a bare ValueError, even for a zero
    with pytest.raises(MalformedHeader) as ei:
        parse_automaton(template.format(tok))
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}:")


# every character str.split() separates at besides space, tab and LF;
# U+3000 is the highest whitespace code point
_STRAY_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in " \t\n"]


@pytest.mark.parametrize("ws", _STRAY_SPACES)
@pytest.mark.parametrize(
    "template,line",
    [
        ("states{}2\ninit 0\naccepting\n", 1),
        ("states 2\ninit 0{}\r\naccepting\n", 2),
        ("states 2\ninit 0{}# note\naccepting\n", 2),
        ("states 2\ninit 0\naccepting 0{}1\n", 3),
        ("states 2\ninit 0\naccepting\ntrans 0{}1 # ok\n", 4),
    ],
)
def test_only_spaces_and_tabs_separate_tokens(ws, template, line):
    with pytest.raises(MalformedHeader) as ei:
        parse_automaton(template.format(ws))
    assert ei.value.line == line


def test_crlf_lines_and_spaces_inside_comments_parse():
    text = "states 2\r\ninit 1\r\naccepting 0 1 # \u3000\x0b\r\r\ntrans 1\t0\r\n"
    assert parse_automaton(text) == parse_automaton("states 2\ninit 1\naccepting 0 1\ntrans 1 0\n")


@pytest.mark.parametrize("args, message", [
    ((0, 0, frozenset(), []), "automaton needs at least one state"),
    ((2, 2, frozenset(), [[], []]), "init 2 out of range"),
    ((2, 0, frozenset(), [[]]), "edges must list successors for every state"),
    ((2, 0, frozenset({-1}), [[], []]), "accepting state -1 out of range"),
    ((2, 0, frozenset(), [[1, 1], []]), "duplicate successor in state 0"),
    ((2, 0, frozenset(), [[], [0, 2]]), "edge 1->2 out of range"),
])
def test_the_constructor_rejects_what_the_parser_would(args, message):
    # only the parser knows line numbers, so these are plain ValueErrors
    with pytest.raises(ValueError) as ei:
        BuchiAutomaton(*args)
    assert type(ei.value) is ValueError and str(ei.value) == message


def test_automata_compare_by_value_and_are_unhashable():
    a = BuchiAutomaton(2, 0, frozenset({1}), [[1], [0]])
    assert a == BuchiAutomaton(2, 0, frozenset({1}), [[1], [0]])
    assert a != BuchiAutomaton(2, 1, frozenset({1}), [[1], [0]])
    assert a != BuchiAutomaton(2, 0, frozenset(), [[1], [0]])
    assert a != BuchiAutomaton(2, 0, frozenset({1}), [[1], []])
    assert a != (2, 0, frozenset({1}), [[1], [0]])
    with pytest.raises(TypeError):
        hash(a)


def test_the_accept_mask_is_derived_not_passed():
    # a mask given to the constructor would be overwritten, so none is taken
    with pytest.raises(TypeError):
        BuchiAutomaton(2, 0, frozenset({1}), [[1], []], bytearray(b"\x01\x00"))
    with pytest.raises(TypeError):
        BuchiAutomaton(2, 0, frozenset({1}), [[1], []], accept_mask=bytearray(b"\x01\x00"))
    assert BuchiAutomaton(2, 0, frozenset({1}), [[1], []]).accept_mask == bytearray(b"\x00\x01")


def test_repr_shows_the_constructor_arguments():
    a = BuchiAutomaton(2, 0, frozenset({1}), [[1], [0]])
    assert repr(a) == "BuchiAutomaton(num_states=2, init=0, accepting=frozenset({1}), edges=[[1], [0]])"
    assert eval(repr(a), {"BuchiAutomaton": BuchiAutomaton}) == a


def _parsed_like_constructed(a):
    # both parser paths build through BuchiAutomaton._trusted, which skips
    # the constructor's checks but must give the same automaton and mask;
    # the bulk path takes every canonical text
    text = a.to_text()
    for b in (parse_automaton(text), _parse_bulk(text), _parse_lines(text)):
        assert b == a
        assert b.accept_mask == a.accept_mask


@given(automata())
def test_text_round_trip(a):
    _parsed_like_constructed(a)


def test_layered_graphs_parse_to_the_constructed_automaton():
    for seed in range(4):
        _parsed_like_constructed(layered(seed, back_edge=seed % 2 == 1))


@st.composite
def _mutated_texts(draw):
    lines = draw(automata(max_states=6)).to_text().split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "tokens", "insert"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "tokens":
            toks = lines[i].split(" ")
            k, m = (draw(st.integers(0, len(toks) - 1)) for _ in range(2))
            tok_op = draw(st.sampled_from(["drop", "repeat", "swap"]))
            if tok_op == "drop":
                del toks[k]
            elif tok_op == "repeat":
                toks.insert(k, toks[k])
            else:
                toks[k], toks[m] = toks[m], toks[k]
            lines[i] = " ".join(toks)
        else:
            at = draw(st.integers(0, len(lines[i])))
            bit = draw(st.sampled_from(["0", "3", "9", "17", "#", "trans", " ", "\t", "\n", *_STRAY_SPACES]))
            lines[i] = lines[i][:at] + bit + lines[i][at:]
    return "\n".join(lines)


@settings(max_examples=400)
@given(_mutated_texts())
def test_mutated_text_parses_or_raises_a_typed_error(text):
    # a states count is one run of digits: none above 10,000, so no
    # example allocates a large successor table
    assume(all(int(d) <= 10_000 for d in re.findall("[0-9]+", text)))
    try:
        a = parse_automaton(text)
    except (MalformedHeader, DanglingStateId, DuplicateEdge) as e:
        assert 1 <= e.line <= text.count("\n") + 1
        assert str(e).startswith(f"line {e.line}:")
    else:
        # the parser does not repeat the constructor's checks, having made
        # them itself, so what it returns must pass them
        b = BuchiAutomaton(a.num_states, a.init, a.accepting, a.edges)
        assert b == a and b.accept_mask == a.accept_mask
        assert parse_automaton(a.to_text()) == a


def _outcome(parse, text):
    try:
        return parse(text)
    except (MalformedHeader, DanglingStateId, DuplicateEdge) as e:
        return type(e), e.line, str(e)


@settings(max_examples=400)
@given(_mutated_texts())
def test_bulk_and_line_paths_agree(text):
    # parse_automaton takes the bulk path where it can; the line path
    # must give the same automaton, or the same error at the same line
    assume(all(int(d) <= 10_000 for d in re.findall("[0-9]+", text)))
    assert _outcome(parse_automaton, text) == _outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "text,line,length",
    [
        ("states 2\ninit " + "x" * 5000 + "\naccepting\n", 2, 5000),
        ("states 2\ninit" + "x" * 5000 + "\naccepting\n", 2, 5004),
        ("states 2\ninit 0\naccepting\ntrans 0 1 " + " ".join(["1"] * 3000) + "\n", 4, 6009),
    ],
    ids=["long-init-token", "long-init-line", "long-trans-line"],
)
def test_parse_errors_quote_a_bounded_prefix(text, line, length):
    with pytest.raises(MalformedHeader) as ei:
        parse_automaton(text)
    msg = str(ei.value)
    assert ei.value.line == line and msg.startswith(f"line {line}:")
    assert len(msg) < 200
    assert f"({length} characters)" in msg


_HUGE_HEADER_PROBE = """
import resource, sys, tracemalloc
# a parser that allocates before it checks gets a MemoryError here, not
# the whole machine's memory
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cyclone import DuplicateEdge, MalformedHeader, parse_automaton
tracemalloc.start()
try:
    parse_automaton(sys.stdin.read())
except (DuplicateEdge, MalformedHeader) as e:
    print(type(e).__name__, e.line, tracemalloc.get_traced_memory()[1])
"""


def _huge_header_probe(text):
    """(error type name, line, tracemalloc peak) of parsing text in a child under a 1 GiB address space."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _HUGE_HEADER_PROBE], input=text,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    name, line, peak = proc.stdout.split()
    return name, int(line), int(peak)


def test_a_bad_line_raises_before_the_successor_lists_exist():
    name, line, peak = _huge_header_probe("states 1000000000000\ninit 0\naccepting\ntrans 0 x\n")
    assert (name, line) == ("MalformedHeader", 4)
    assert peak < 1_000_000


def test_a_duplicate_edge_raises_before_the_successor_lists_exist():
    # the duplicate check runs on the lists grouped by source, before the
    # table of one list per declared state is allocated
    name, line, peak = _huge_header_probe("states 1000000000000\ninit 0\naccepting\ntrans 0 1\ntrans 0 1\n")
    assert (name, line) == ("DuplicateEdge", 5)
    assert peak < 1_000_000


_PAD = 10_000_000


@pytest.mark.parametrize(
    "text,error",
    [
        ("states 1000000000000\ninit 0\naccepting\ntrans 0 999999999\ntrans 0 x\n", ("MalformedHeader", 5)),
        ("states 1000000000000\ninit 0\naccepting 999999999\ntrans 0 x\n", ("MalformedHeader", 4)),
        ("states 1000000000000\ninit 0\naccepting\ntrans 999999999 0\ntrans 999999999 0\n",
         ("DuplicateEdge", 5)),
        ("states 1000000000000\ninit 0\naccepting\ntrans 0 9999999\ntrans 0 x\n# " + "c" * _PAD + "\n",
         ("MalformedHeader", 5)),
        ("states 1000000000000\ninit 0\naccepting\ntrans 0 9999999" + " " * _PAD + "\ntrans 0 x\n",
         ("MalformedHeader", 5)),
    ],
    ids=["large-target", "large-accepting", "large-source", "padded-by-a-comment", "padded-by-spaces"],
)
def test_a_large_id_raises_before_its_int_objects_exist(text, error):
    # the parser shares one int object per id among the ids it has read,
    # so one large id in range is no licence to allocate before the lines
    # after it are checked, however long the text is made at no cost: by
    # a comment, which sends it to the line path, or by trailing spaces,
    # which the bulk path reads in one chunk before the bad line sends the
    # text on.  Either path may copy a line or a chunk a few times.
    name, line, peak = _huge_header_probe(text)
    assert (name, line) == error
    assert peak < 1_000_000 + 4 * len(text)


def test_a_sparse_text_parses_the_same_on_both_paths():
    # ids far past the text's length: the bulk path takes the text, and
    # both paths share one int object per id
    text = "states 100000\ninit 0\naccepting 99999 7\ntrans 0 99999\ntrans 99999 7\ntrans 7 0\n"
    edges = [[] for _ in range(100_000)]
    edges[0], edges[7], edges[99_999] = [99_999], [0], [7]
    expected = BuchiAutomaton(100_000, 0, frozenset({7, 99_999}), edges)
    bulk, lines = _parse_bulk(text), _parse_lines(text)
    assert bulk == lines == expected
    for a in (bulk, lines):
        assert len(_int_objects(a)) == 3


def test_the_bulk_parse_peaks_within_twice_the_automaton():
    # a layered graph of the benchmark's size: 6,000 states, about 15,000
    # edges.  Whole-text tokens and a set of edge keys made the peak 2.9
    # times what the automaton keeps; chunks and lists grouped by source
    # made it 1.6 times.  One int object per id shrinks what it keeps by a
    # third and the peak by a quarter, which makes it 1.8 times.
    text = layered(0, False, 24, 250).to_text()
    tracemalloc.start()
    try:
        a = parse_automaton(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.num_edges > 14_000
    assert peak <= 2 * kept


@contextmanager
def _chunks_of(chars):
    saved = automaton._CHUNK_CHARS
    automaton._CHUNK_CHARS = chars
    try:
        yield
    finally:
        automaton._CHUNK_CHARS = saved


@given(automata(), st.integers(1, 24))
def test_text_round_trip_in_small_chunks(a, chars):
    with _chunks_of(chars):
        _parsed_like_constructed(a)


@settings(max_examples=400)
@given(_mutated_texts(), st.integers(1, 24))
def test_bulk_and_line_paths_agree_in_small_chunks(text, chars):
    assume(all(int(d) <= 10_000 for d in re.findall("[0-9]+", text)))
    with _chunks_of(chars):
        assert _outcome(parse_automaton, text) == _outcome(_parse_lines, text)


_TWO_CHUNKS = "states 3\ninit 0\naccepting 2\ntrans 0 1\n{}\ntrans 2 0\n"


@pytest.mark.parametrize("second, exc", [
    ("trans 1 x", MalformedHeader),
    ("trans 1 +2", MalformedHeader),
    ("trans 1", MalformedHeader),
    ("trans 1 2 0", MalformedHeader),
    ("1 2", MalformedHeader),
    ("trans 1 3", DanglingStateId),
    ("trans 0 1", DuplicateEdge),
])
def test_a_bad_line_opening_the_second_chunk_raises_at_its_line(second, exc):
    # "trans 0 1\n" fills the first chunk of 10 characters to the LF, so
    # line 5 opens the second; the duplicate repeats an edge of the first
    text = _TWO_CHUNKS.format(second)
    with _chunks_of(10):
        assert _parse_bulk(text) is None
        with pytest.raises(exc) as ei:
            parse_automaton(text)
    assert ei.value.line == 5
    assert _outcome(parse_automaton, text) == _outcome(_parse_lines, text)


@pytest.mark.parametrize("text", [
    # tabs on either side of a chunk's closing LF, and opening one
    "states 3\ninit 0\naccepting 2\ntrans\t0\t1\t\ntrans 1 2\n\ttrans 2 0\n",
    # CRs before each LF, where a chunk ends
    "states 3\r\ninit 0\r\naccepting 2\r\ntrans 0 1\r\ntrans 1 2\r\ntrans 2 0\r\n",
    # several chunks and no final LF
    "states 3\ninit 0\naccepting 2\ntrans 0 1\ntrans 1 2\ntrans 2 0",
    "states 3\ninit 0\naccepting 2\ntrans 0 1\ntrans 1 2\ntrans\t2 0\t",
], ids=["tabs", "crlf", "no-final-lf", "no-final-lf-tabs"])
@pytest.mark.parametrize("chars", [1, 5, 10, 11, 17, 1 << 14])
def test_chunk_boundaries_keep_the_parse(text, chars):
    expected = BuchiAutomaton(3, 0, frozenset({2}), [[1], [2], [0]])
    with _chunks_of(chars):
        assert parse_automaton(text) == expected
        assert _parse_lines(text) == expected
        if text.startswith("states 3\ninit") and "\n\t" not in text:
            assert _parse_bulk(text) == expected


def _int_objects(a):
    return {id(t) for succ in a.edges for t in succ} | {id(x) for x in a.accepting}


@pytest.mark.parametrize("chars", [1 << 14, 1])
def test_a_parsed_automaton_holds_one_int_object_per_state_id(chars):
    # ids past 256, which CPython does not share already; the leading
    # comment sends the text through the line path, and chunks of one
    # line give the bulk path single-line chunks
    a = gen_random(2000, 3.0, 0.3, 5)
    text = a.to_text()
    with _chunks_of(chars):
        plain, commented = _parse_bulk(text), parse_automaton("# comment\n" + text)
    assert plain == commented == a
    assert max(max(succ, default=0) for succ in a.edges) > 256 and max(a.accepting) > 256
    for b in (plain, commented):
        assert len(_int_objects(b)) <= b.num_states


# --- successor permutations ---------------------------------------------


_KEYS = st.integers(0, 2**64 - 1)
_STATES = st.integers(0, 10**6)


@given(st.lists(st.integers(0, 1000), unique=True, max_size=12), _KEYS, _STATES)
def test_permute_is_a_bijection(xs, key, s):
    assert sorted(permute(xs, key, s)) == sorted(xs)


@given(st.lists(st.integers(0, 1000), unique=True, max_size=12), _KEYS, _STATES)
def test_permute_is_deterministic(xs, key, s):
    assert permute(xs, key, s) == permute(xs, key, s)


def test_permute_short_lists_pass_through():
    assert permute([], 7, 0) == []
    assert permute([3], 7, 0) == [3]


def test_permute_pairs_take_both_orders():
    seen = {tuple(permute([4, 9], key, s)) for key in range(8) for s in range(8)}
    assert seen == {(4, 9), (9, 4)}


def test_workers_get_distinct_orders():
    xs = list(range(8))
    orders = {
        tuple(permute(xs, worker_keys(w, 0)[0], 0))
        for w in range(16)
    }
    assert len(orders) > 8  # mostly distinct over 8! possibilities


def test_permute_orders_are_frozen():
    # Every seeded search follows these orders; the whole-search goldens
    # would catch a moved order only through the lassos it changes.
    blue = worker_keys(1, 0)[0]
    assert [permute([4, 9], blue, s) for s in range(4)] == [[9, 4], [4, 9], [9, 4], [4, 9]]
    assert permute([10, 20, 30], blue, 5) == [30, 10, 20]
    assert permute([10, 20, 30], worker_keys(2, 7)[1], 5) == [20, 10, 30]
    assert permute(list(range(9)), blue, 42) == [1, 5, 8, 2, 3, 4, 6, 0, 7]
    assert permute(list(range(9)), worker_keys(3, 1)[1], 0) == [5, 8, 3, 6, 1, 7, 0, 4, 2]


def test_blue_and_red_keys_differ():
    for w in range(8):
        blue, red = worker_keys(w, 3)
        assert blue != red


# --- generators -----------------------------------------------------------


def test_gen_lasso_shape():
    a = gen_lasso(2, 3, True)
    assert a.num_states == 5
    assert a.init == 0
    assert a.accepting == frozenset({2})
    assert a.num_edges == 5


def test_gen_lasso_zero_stem_keeps_accepting_off_cycle():
    # a 0-stem lasso cannot keep a non-cycle state accepting, so one
    # stem state is forced in
    a = gen_lasso(0, 3, False)
    assert a.init == 0
    assert 0 in a.accepting
    assert has_accepting_cycle(a) is False


def test_gen_lasso_rejects_degenerate_cycle():
    with pytest.raises(ZeroCycle):
        gen_lasso(2, 0, True)


def test_gen_lasso_rejects_a_negative_stem():
    # library-only: a generator spec takes ASCII digits, so no spec reaches it
    with pytest.raises(ValueError, match="stem_len must be >= 0, got -1"):
        gen_lasso(-1, 3, True)


@pytest.mark.parametrize("stem", range(4))
@pytest.mark.parametrize("cyc", range(1, 5))
@pytest.mark.parametrize("acc", [True, False])
def test_gen_lasso_verdict_matches_flag(stem, cyc, acc):
    # expected verdicts confirmed by the SCC oracle
    assert has_accepting_cycle(gen_lasso(stem, cyc, acc)) is acc


def test_gen_random_is_deterministic():
    assert gen_random(40, 2.0, 0.3, 7) == gen_random(40, 2.0, 0.3, 7)
    assert gen_random(40, 2.0, 0.3, 7) != gen_random(40, 2.0, 0.3, 8)


def test_gen_random_respects_accept_prob_extremes():
    assert gen_random(30, 2.0, 0.0, 1).accepting == frozenset()
    assert gen_random(30, 2.0, 1.0, 1).accepting == frozenset(range(30))


def test_gen_random_successors_unique():
    a = gen_random(50, 3.0, 0.2, 11)
    for s in range(a.num_states):
        assert len(a.edges[s]) == len(set(a.edges[s]))


def test_gen_needle_shape_and_verdicts():
    a = gen_needle(4, 10, 3)
    assert a.num_states == 1 + 4 * 10 + 2
    u = 1 + 4 * 10
    assert a.accepting == frozenset({u})
    assert has_accepting_cycle(a) is True
    assert has_accepting_cycle(gen_needle(4, 10, 3, with_cycle=False)) is False


def test_gen_needle_target_chain_varies_with_seed():
    needles = {random.Random(s).randrange(16) for s in range(30)}
    assert len(needles) > 4
