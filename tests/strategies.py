"""Shared test inputs: hypothesis strategies for small automata, a layered
graph builder, a driver for a lone search, and a successor table that
counts its reads."""

import random

import hypothesis.strategies as st

from cyclone import BuchiAutomaton


@st.composite
def automata(draw, max_states: int = 8, max_degree: int = 3):
    n = draw(st.integers(1, max_states))
    init = draw(st.integers(0, n - 1))
    accepting = draw(st.frozensets(st.integers(0, n - 1)))
    edges = [
        draw(st.lists(st.integers(0, n - 1), max_size=min(max_degree, n), unique=True))
        for _ in range(n)
    ]
    return BuchiAutomaton(n, init, accepting, edges)


def layered(seed: int, back_edge: bool, layers: int = 12, width: int = 60) -> BuchiAutomaton:
    # the benchmark's layered shape: per layer a ring of non-accepting
    # states plus as many accepting states that lead only onward, so no
    # cycle is accepting.  Dense accepting states make racing workers
    # meet each other's half-done ones.  back_edge adds one edge from the
    # last layer to an accepting state, which closes accepting cycles.
    rng = random.Random(seed)
    n = layers * width
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [[] for _ in range(n)]
    blocks = [ids[k * width:(k + 1) * width] for k in range(layers)]
    accs = [b[: width // 2] for b in blocks]
    rings = [b[width // 2:] for b in blocks]
    for k in range(layers):
        ring = rings[k]
        for i, s in enumerate(ring):
            edges[s] += [ring[(i + 1) % len(ring)], rng.choice(ring)]
        for a in accs[k]:
            edges[rng.choice(ring)].append(a)
            if k + 1 < layers:
                edges[a] += [rng.choice(rings[k + 1]), rng.choice(blocks[k + 1])]
    if back_edge:
        edges[rng.choice(blocks[-1])].append(rng.choice(accs[rng.randrange(layers - 1)]))
    accepting = frozenset(a for acc in accs for a in acc)
    return BuchiAutomaton(n, rings[0][0], accepting, [list(dict.fromkeys(e)) for e in edges])


def finish(search):
    """The result of a lone nested_search, which must end on its first turn."""
    try:
        next(search)
    except StopIteration as done:
        return done.value
    raise AssertionError("a lone search yielded")


class ReadCounted(list):
    """A successor table that counts how often a walk reads a state's list."""

    reads = 0

    def __getitem__(self, s):
        self.reads += 1
        return super().__getitem__(s)
