"""Frozen outputs of the breadth-first kernels and the SCC oracle.

The values were taken from the set- and dict-based kernels and pin what
the array-based ones must reproduce bit for bit: owcty's lasso and work
counters, map_pass's id table and pop count, and the exact component
lists (and witness lasso) of the oracle.  Sixty seeded random graphs mix
sizes, degrees and acceptance; at degree 1 or 2 many of their states are
unreachable from init, where the iteration order of a reachable set used
to matter.  Six layered graphs add fixpoints of five to nine rounds.
"""

import hashlib
import random

from cyclone import BuchiAutomaton, gen_random, map_pass, owcty, sccs_from_init, witness_lasso


def _layered(seed: int, layers: int, width: int, back_edge: bool) -> BuchiAutomaton:
    # random graphs settle owcty's fixpoint within two rounds; layers of a
    # non-accepting ring whose accepting states lead only onward strip one
    # layer per round.  back_edge may close accepting cycles, init sits in
    # a seeded layer, so the layers above it are unreachable.
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
    init = rings[rng.randrange(layers // 2)][0]
    return BuchiAutomaton(n, init, accepting, [list(dict.fromkeys(e)) for e in edges])


def _graph(k: int) -> BuchiAutomaton:
    if k >= 60:
        return _layered(900 + k, (6, 10, 16)[k % 3], (8, 20)[k % 2], back_edge=k % 4 == 1)
    # k % 4, k % 3 and k % 5 run through every combination over 60 graphs
    n = (12, 40, 120, 300)[k % 4]
    deg = (1.0, 2.0, 3.0)[k % 3]
    p = (0.0, 0.02, 0.1, 0.3, 0.6)[k % 5]
    return gen_random(n, deg, p, 800 + k)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


def _shape(lasso):
    return None if lasso is None else (lasso.stem, lasso.cycle, lasso.accept_index)


def _observe(a):
    v = owcty(a)
    x = v.stats.extras
    mr = map_pass(a)
    comps = sccs_from_init(a)
    return (
        _digest(_shape(v.lasso)), v.stats.total_expansions, x["owcty_rounds"], x["map_hits"],
        _digest(mr.table), mr.pops,
        len(comps), _digest(comps), _digest(_shape(witness_lasso(a))),
    )


# k: (owcty lasso, total expansions, rounds, map_hits,
#     map_pass table, map_pass pops, component count, components, witness lasso)
_GOLDEN = {
    0: ('dc937b598926', 2, 1, 0, 'a8f8a3acb11a', 2, 1, 'ec0ca82449bb', 'dc937b598926'),
    1: ('dc937b598926', 29, 1, 0, '4095dcdb04bd', 29, 1, '97439956f307', 'dc937b598926'),
    2: ('eaa8fcd20b8b', 136, 0, 1, '24f435fca4f6', 136, 1, '74892b0a053f', '924eb9cac962'),
    3: ('ba66ec057232', 33, 0, 1, '73098a0f6092', 33, 7, '997ac69a01d2', 'ba66ec057232'),
    4: ('f28d1f727986', 32, 0, 1, '3ec79061f081', 32, 1, 'c1fd09feccac', 'f28d1f727986'),
    5: ('dc937b598926', 40, 1, 0, '4095dcdb04bd', 40, 1, '8dcec9c2ce8f', 'dc937b598926'),
    6: ('dc937b598926', 12, 1, 0, '2e0a6c9fd51d', 12, 10, '869044900b3f', 'dc937b598926'),
    7: ('568cda081ce9', 337, 0, 1, '05a5299cc4ef', 337, 1, 'b0b777eb594a', 'fc5dc10732c5'),
    8: ('5e62678856e7', 22, 0, 1, 'd205eaf0846a', 22, 1, '91aa44b2f405', '9ee4ce7c967c'),
    9: ('cb07f074d043', 17, 0, 1, '5d0d59492e9e', 17, 2, 'f16fcdbd00b3', '02d732911046'),
    10: ('dc937b598926', 90, 1, 0, '2e0a6c9fd51d', 90, 1, '4caa0d518f49', 'dc937b598926'),
    11: ('2efc62f45f2b', 444, 0, 1, '63f1f1662aab', 444, 1, 'e3fde8741fd8', 'bf22ca903039'),
    12: ('dc937b598926', 1, 1, 0, 'a8f8a3acb11a', 1, 1, 'db407f11d7ed', 'dc937b598926'),
    13: ('ddab92b607b2', 53, 0, 1, '5368389d8e2a', 53, 2, '8a05016e06ff', 'aaa94d9220bd'),
    14: ('062b98a47a93', 177, 0, 1, 'bdbf0a71ddb5', 177, 1, 'ae42f998bbf2', '154089deb773'),
    15: ('dc937b598926', 19, 1, 0, '8581d8ffc2a3', 19, 12, '482a2956c98f', 'dc937b598926'),
    16: ('a95daffe3b60', 14, 0, 1, '1b81f8b5a92c', 14, 1, 'db14810d1fe2', 'a95daffe3b60'),
    17: ('8f82d80311c6', 45, 0, 1, 'dad42b218ccc', 45, 1, 'b1782e48be09', '0ea2f648defd'),
    18: ('e293b1244bec', 129, 2, 0, '4226fdc87952', 81, 18, 'e84502b9a968', '5241bdc7b1aa'),
    19: ('f5b22425a108', 682, 0, 1, '74e621dc77ca', 682, 2, 'ff86f13ce4f7', 'e3de0768baaa'),
    20: ('dc937b598926', 10, 1, 0, 'a8f8a3acb11a', 10, 1, 'd17fc43e050b', 'dc937b598926'),
    21: ('dc937b598926', 6, 1, 0, '4095dcdb04bd', 6, 2, '70c28800f03d', 'dc937b598926'),
    22: ('af6fccf7ccf3', 177, 0, 1, 'c1f936e6c335', 177, 1, 'b806f522373e', '63892f767cd3'),
    23: ('bd609b886b55', 363, 0, 1, '40f7514bacf4', 363, 1, 'c3b0145ad209', '70e4ffad03e7'),
    24: ('2de0ef393491', 7, 0, 1, '77d806206ea0', 7, 1, '4c60f678ea77', 'b44824b3ceea'),
    25: ('dc937b598926', 29, 1, 0, '4095dcdb04bd', 29, 1, '395c7ad96978', 'dc937b598926'),
    26: ('1266ac241d3a', 155, 0, 1, '85b0d1becae7', 155, 1, 'ab7d53bb57ab', '1266ac241d3a'),
    27: ('cf300340d9a9', 16, 0, 1, '5b6158c0df3a', 16, 7, 'd004225e4813', 'cf300340d9a9'),
    28: ('dc937b598926', 9, 1, 0, 'a8f8a3acb11a', 9, 2, '5055aac5be30', 'dc937b598926'),
    29: ('8c4d17d27af9', 38, 0, 1, '8350d5f8ce3d', 38, 1, '748e64f7a98a', '04ac8704fa9e'),
    30: ('dc937b598926', 13, 1, 0, '2e0a6c9fd51d', 13, 8, 'e85a58469da5', 'dc937b598926'),
    31: ('0d82cb4e1bca', 265, 0, 1, 'd1da5363d725', 265, 1, 'd946f6098d83', 'a67339acb773'),
    32: ('6733e0942d03', 15, 0, 1, 'a7bd44995b85', 15, 1, 'ed0e61660002', '6733e0942d03'),
    33: ('dc937b598926', 39, 2, 0, '35e58666aca5', 26, 14, '871e72b02593', 'dc937b598926'),
    34: ('a3b742834ea8', 110, 0, 1, 'd68af37c98bf', 110, 5, 'b0fd2ce600fa', '646e42f1b564'),
    35: ('dc937b598926', 284, 1, 0, '8581d8ffc2a3', 284, 1, '754595d85d10', 'dc937b598926'),
    36: ('dc937b598926', 13, 2, 0, '88fb05075351', 8, 2, '5696a5850838', 'dc937b598926'),
    37: ('13b0a729b535', 81, 0, 1, '701ac7964e5c', 81, 1, 'b28a0a4cbb58', 'f75f4b83a59a'),
    38: ('4472874c56af', 126, 0, 1, 'a82e3ca5d357', 126, 1, '1b79849b4a62', 'e97ae118fffe'),
    39: ('724c644a96e1', 112, 2, 0, '5cf04deb2421', 68, 16, '84e9f54b677f', '632bd41f9e93'),
    40: ('dc937b598926', 6, 1, 0, 'a8f8a3acb11a', 6, 2, '5cbb4a959e40', 'dc937b598926'),
    41: ('1b55563f8359', 65, 0, 1, 'eee886521306', 65, 1, '094b15d58162', '1b55563f8359'),
    42: ('dc937b598926', 28, 2, 0, '250667b768e6', 16, 5, '07140200679e', 'dc937b598926'),
    43: ('5b7d0db4db18', 313, 0, 1, 'd791aa8f2dd0', 313, 1, '8bd4eb03e69f', '1f9d355e6380'),
    44: ('19cc5dcda76d', 16, 0, 1, 'c04b5f8187b9', 16, 1, 'f19f6556b59d', 'd1369a4e6c2b'),
    45: ('dc937b598926', 2, 1, 0, '4095dcdb04bd', 2, 2, 'f02499f6d029', 'dc937b598926'),
    46: ('93417f8523de', 139, 0, 1, '564a73977276', 139, 1, '3de79ee2720b', '3876bfeabaa8'),
    47: ('a53918b24f8d', 288, 0, 1, 'c06799074b4d', 288, 1, '2cbc44c537b6', '9e5efa098c65'),
    48: ('dc937b598926', 12, 2, 0, '1fc9e6f86237', 7, 4, 'fe9763b2af74', 'dc937b598926'),
    49: ('f569d21bc160', 36, 0, 1, '7bb6c87f7c6c', 36, 1, 'fdcfbb6854db', '681e5285d6af'),
    50: ('dc937b598926', 114, 1, 0, '2e0a6c9fd51d', 114, 1, '71dbbd64b455', 'dc937b598926'),
    51: ('dc937b598926', 78, 2, 0, 'fc91bf2f1518', 53, 22, '3e6cfba97871', 'dc937b598926'),
    52: ('dc937b598926', 11, 1, 0, 'a8f8a3acb11a', 11, 3, '6fde6e7c75ce', 'dc937b598926'),
    53: ('c46ce60d6299', 92, 0, 1, '89838e03f73c', 92, 1, '561aa831a41d', '648a5dc6a3ad'),
    54: ('aeb61d7177a7', 10, 0, 1, '2d6d38492d71', 10, 3, '3e854cc3c369', 'aeb61d7177a7'),
    55: ('dc937b598926', 251, 1, 0, '8581d8ffc2a3', 251, 3, '1ca0dadce8be', 'dc937b598926'),
    56: ('dc937b598926', 12, 1, 0, 'a8f8a3acb11a', 12, 2, 'fbd7f552ec40', 'dc937b598926'),
    57: ('dc937b598926', 11, 2, 0, '18fb9abb63c0', 8, 6, 'c4326e5b34b7', 'dc937b598926'),
    58: ('848ba6a4a0e7', 111, 0, 1, '22b89c51c887', 111, 1, '2beee3067e5c', '85587f7f7a0b'),
    59: ('176308140f1e', 689, 0, 1, 'e7577112286a', 689, 1, 'a1f216bb3a41', 'ad3428f6ac44'),
    60: ('dc937b598926', 272, 5, 0, 'dfac15fbbab4', 152, 25, 'c712b67ad387', 'dc937b598926'),
    61: ('a75141cc9a6f', 926, 0, 1, '50755e3878fb', 926, 11, '8891f1443b75', '80eb277bcc0c'),
    62: ('dc937b598926', 658, 9, 0, '8d7ae25441f1', 298, 45, '3258c9201d57', 'dc937b598926'),
    63: ('dc937b598926', 869, 6, 0, '258c39c03487', 449, 66, '17e04e06bc13', 'dc937b598926'),
    64: ('dc937b598926', 428, 7, 0, 'a8ae49d5c65a', 204, 35, 'ddfe5b583a1a', 'dc937b598926'),
    65: ('51fedfe56e3c', 1596, 0, 1, '6bd8ab7d0f02', 1596, 10, 'e73885eafdbb', '9efe68804ef3'),
}


def test_kernel_outputs_are_frozen():
    assert len(_GOLDEN) == 66
    for k, want in _GOLDEN.items():
        assert _observe(_graph(k)) == want, k


def test_golden_graphs_cover_every_path():
    # partial reachability, propagation hits, fixpoint lassos and
    # multi-round empty fixpoints all occur among the frozen graphs
    reach = [len(map_pass(_graph(k)).reach) / _graph(k).num_states for k in _GOLDEN]
    assert sum(r < 1.0 for r in reach) >= 30
    kinds = {(w[3], w[0] != _digest(None), w[2] > 1) for w in _GOLDEN.values()}
    assert (1, True, False) in kinds  # decided by the propagation pass
    assert (0, True, True) in kinds  # a lasso out of the fixpoint
    assert (0, False, True) in kinds  # an empty fixpoint after several rounds
    assert max(w[2] for w in _GOLDEN.values()) >= 9
