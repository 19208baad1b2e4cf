"""Text format, generators, and successor permutations."""

import os
import random
import re
import subprocess
import sys
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
from cyclone import MalformedHeader, parse_automaton
tracemalloc.start()
try:
    parse_automaton("states 1000000000000\\ninit 0\\naccepting\\ntrans 0 x\\n")
except MalformedHeader as e:
    print(e.line, tracemalloc.get_traced_memory()[1])
"""


def test_a_bad_line_raises_before_the_successor_lists_exist():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _HUGE_HEADER_PROBE], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    line, peak = map(int, proc.stdout.split())
    assert line == 4
    assert peak < 1_000_000


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
