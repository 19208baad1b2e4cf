"""Seeded inputs for the benchmark, with their verdicts known by construction.

Every generator here builds plain edge lists without calling into the
program, so the facts the benchmark checks against (whether an accepting
cycle exists, which states lie on it, how many states are reachable) come
from the construction, not from the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """One generated graph plus the facts its construction guarantees.

    cycle is the set of states on the only reachable accepting cycle, or
    None when the construction rules every accepting cycle out.
    """

    name: str
    num_states: int
    init: int
    accepting: frozenset
    edges: list
    reachable: int
    cycle: frozenset | None


def layered(seed: int, layers: int, width: int, accept_frac: float) -> Instance:
    """Layered graph with cycles inside layers and none through accepting states.

    Each layer has `width` states, a fixed share of them accepting.  The
    non-accepting states of a layer form a ring plus random chords, so
    they make one strongly connected component; they also point at the
    accepting states of their own layer.  Accepting states have edges
    only to later layers, and no edge leads back to an earlier layer, so
    every cycle stays inside one layer and misses its accepting states.
    Every state is reachable from init: ring to ring through one
    accepting state per layer, and every accepting state from its ring.
    State ids are a seeded shuffle, so id order says nothing of layers.
    """
    if layers < 1 or width < 2:
        raise ValueError(f"need a layer of at least 2 states, got {layers}x{width}")
    rng = random.Random(seed)
    n = layers * width
    n_acc = max(1, min(width - 1, round(width * accept_frac)))  # the ring keeps one state
    ids = list(range(n))
    rng.shuffle(ids)
    edges: list[list[int]] = [[] for _ in range(n)]
    accepting = set()
    rings, accs = [], []
    for k in range(layers):
        block = ids[k * width:(k + 1) * width]
        accs.append(block[:n_acc])
        rings.append(block[n_acc:])
        accepting.update(block[:n_acc])

    def add(s: int, t: int) -> None:
        if t not in edges[s]:
            edges[s].append(t)

    for k in range(layers):
        ring, acc = rings[k], accs[k]
        for i, s in enumerate(ring):
            add(s, ring[(i + 1) % len(ring)])
            add(s, rng.choice(ring))  # chord, may be a self-loop
        for a in acc:
            add(rng.choice(ring), a)
        if k + 1 < layers:
            nxt = rings[k + 1] + accs[k + 1]
            for a in acc:
                add(a, rng.choice(rings[k + 1]))
                add(a, rng.choice(nxt))
            for s in ring:
                if rng.random() < 0.25:
                    add(s, rng.choice(nxt))
    for succs in edges:
        rng.shuffle(succs)
    return Instance(f"layered-{seed}", n, rings[0][0], frozenset(accepting), edges, n, None)


def needle(seed: int, width: int, depth: int, position: int) -> Instance:
    """The needle:W:D shape with the needle chain chosen by the caller.

    Init fans out to `width` disjoint chains of `depth` states.  Chain
    `position` ends in the accepting half of a 2-cycle; every other chain
    dead-ends.  The layout is that of the program's own needle generator.
    """
    if not 0 <= position < width:
        raise ValueError(f"needle position {position} outside 0..{width - 1}")
    n = 1 + width * depth + 2
    u = n - 2
    edges: list[list[int]] = [[] for _ in range(n)]
    for c in range(width):
        head = 1 + c * depth
        edges[0].append(head)
        for i in range(depth - 1):
            edges[head + i].append(head + i + 1)
    edges[position * depth + depth].append(u)
    edges[u].append(u + 1)
    edges[u + 1].append(u)
    return Instance(f"needle-{seed}-{position}", n, 0, frozenset({u}), edges, n, frozenset({u, u + 1}))


def needle_positions(seed: int, width: int) -> list[int]:
    """Every needle position once, in a seeded order.

    One instance per position makes each run a complete sample of where
    the needle can sit, so the racing cost averages over all of them
    instead of over a few seeded draws.
    """
    pos = list(range(width))
    random.Random(seed).shuffle(pos)
    return pos

