"""Shared test inputs: hypothesis strategies for small automata, builders
of layered, onion and fan-into-chain graphs, a driver for a lone search, a
successor table that counts its reads, and an independent shortest-path
reference."""

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


def onion(layers: int) -> BuchiAutomaton:
    # layer k is accepting 3k -> 3k+1 <-> 3k+2 -> 3k+3: no accepting cycle,
    # and owcty's fixpoint peels one layer per round, so a closure per round
    # would cost the square of the layer count
    edges = []
    for k in range(layers):
        edges += [[3 * k + 1], [3 * k + 2], [3 * k + 1] + ([3 * k + 3] if k + 1 < layers else [])]
    return BuchiAutomaton(3 * layers, 0, frozenset(range(0, 3 * layers, 3)), edges)


def fan_into_chain(fan: int, length: int) -> BuchiAutomaton:
    # accepting 0 -> 1..fan, each of them -> one dead-end chain of length
    # states, and 0 -> 0 listed last: the only cycle is the self-loop, and
    # every other successor of 0 leads into the whole chain
    n = 1 + fan + length
    edges = [[*range(1, fan + 1), 0]] + [[fan + 1] for _ in range(fan)]
    edges += [[s + 1] for s in range(fan + 1, n - 1)] + [[]]
    return BuchiAutomaton(n, 0, frozenset({0}), edges)


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


def bfs_path(aut: BuchiAutomaton, src: int, target: int) -> list[int] | None:
    """Shortest path src -> target, or None; [src] when src is the target.

    A reference for the program's breadth-first paths that shares none of
    their code: a bytearray mask, and beside the queue the queue index of
    each state's parent.  It stops when it enters target.
    """
    if src == target:
        return [src]
    seen = bytearray(aut.num_states)
    seen[src] = 1
    edges = aut.edges
    queue = [src]
    parent = [-1]
    for i, s in enumerate(queue):
        for t in edges[s]:
            if seen[t]:
                continue
            if t == target:
                path = [t]
                while i >= 0:
                    path.append(queue[i])
                    i = parent[i]
                path.reverse()
                return path
            seen[t] = 1
            queue.append(t)
            parent.append(i)
    return None
