"""Tests of the benchmark's own pieces: generators, checkers, refusal to run.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def accepting_cycles(inst):
    """Every simple cycle through a reachable accepting state, by brute force.

    Cycles are returned as frozensets of their states.  Exponential, so
    only for small graphs.
    """
    reach, todo = {inst.init}, [inst.init]
    while todo:
        for t in inst.edges[todo.pop()]:
            if t not in reach:
                reach.add(t)
                todo.append(t)
    found = set()

    def walk(origin, s, path):
        for t in inst.edges[s]:
            if t == origin:
                found.add(frozenset(path))
            elif t not in path:
                walk(origin, t, path + [t])

    for a in sorted(inst.accepting & reach):
        walk(a, a, [a])
    return reach, found


@pytest.mark.parametrize("seed", range(40))
def test_layered_has_no_accepting_cycle(seed):
    rng = random.Random(seed)
    inst = workloads.layered(seed, rng.randint(1, 4), rng.randint(2, 6), rng.choice((0.2, 0.5, 0.8)))
    reach, cycles = accepting_cycles(inst)
    assert cycles == set()
    assert len(reach) == inst.reachable == inst.num_states
    assert inst.cycle is None


def test_layered_has_cycles_and_dense_accepting_states():
    inst = workloads.layered(3, 4, 8, 0.5)
    assert len(inst.accepting) == 16
    # every non-accepting state sits on its layer's ring, a cycle the search must see
    ring = [s for s in range(inst.num_states) if s not in inst.accepting]
    on_cycle = 0
    for s in ring:
        seen, todo = set(), list(inst.edges[s])
        while todo:
            t = todo.pop()
            if t == s:
                on_cycle += 1
                break
            if t not in seen:
                seen.add(t)
                todo.extend(inst.edges[t])
    assert on_cycle == len(ring)


@pytest.mark.parametrize("width,depth", [(1, 1), (2, 3), (4, 2), (5, 4)])
def test_every_needle_has_exactly_one_reachable_accepting_cycle(width, depth):
    for position in range(width):
        inst = workloads.needle(7, width, depth, position)
        reach, cycles = accepting_cycles(inst)
        assert cycles == {inst.cycle}
        assert len(inst.cycle) == 2
        assert len(reach) == inst.reachable == inst.num_states


def test_needle_positions_cover_every_chain_once():
    for seed in range(5):
        assert sorted(workloads.needle_positions(seed, 32)) == list(range(32))
    assert workloads.needle_positions(1, 32) == workloads.needle_positions(1, 32)
    assert workloads.needle_positions(1, 32) != workloads.needle_positions(2, 32)


def test_needle_matches_the_program_generator():
    sys.path.insert(0, str(SRC))
    try:
        from cyclone import gen_needle
    finally:
        sys.path.remove(str(SRC))
    for seed in range(6):
        aut = gen_needle(6, 3, seed)
        position = random.Random(seed).randrange(6)
        inst = workloads.needle(seed, 6, 3, position)
        assert (aut.num_states, aut.init, aut.accepting, aut.edges) == (
            inst.num_states, inst.init, inst.accepting, inst.edges)


class _Lasso:
    def __init__(self, stem, cycle, accept_index=0):
        self.stem, self.cycle, self.accept_index = stem, cycle, accept_index


def test_lasso_checker_accepts_the_needle_lasso():
    inst = workloads.needle(0, 2, 3, 1)  # chain 1 is states 4, 5, 6; u, v = 7, 8
    assert checks.lasso_problem(inst, (0, 4, 5, 6, 7), (7, 8), 0) is None
    assert checks.lasso_problem(inst, (0, 4, 5, 6, 7, 8), (8, 7), 1) is None
    checks.check_verdict(inst, "t", _Lasso((0, 4, 5, 6, 7), (7, 8)))


def test_lasso_checker_rejects_a_stem_one_edge_short():
    inst = workloads.needle(0, 2, 3, 1)
    assert "stem ends at 6" in checks.lasso_problem(inst, (0, 4, 5, 6), (7, 8), 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(inst, "t", _Lasso((0, 4, 5, 6), (7, 8)))


@pytest.mark.parametrize("stem,cycle,index,why", [
    ((1, 4, 5, 6, 7), (7, 8), 0, "stem starts"),
    ((0, 5, 6, 7), (7, 8), 0, "no edge 0 -> 5"),
    ((0, 4, 5, 6, 7), (7,), 0, "no edge 7 -> 7"),
    ((0, 4, 5, 6, 7), (7, 8), 1, "accept_index 1"),
    ((0, 4, 5, 6, 7), (7, 8), 2, "accept_index 2"),
    ((0, 4, 5, 6, 7), (7, 9), 0, "out of range"),
    ((), (7, 8), 0, "empty"),
])
def test_lasso_checker_rejects_broken_lassos(stem, cycle, index, why):
    inst = workloads.needle(0, 2, 3, 1)
    assert why in checks.lasso_problem(inst, stem, cycle, index)


def test_verdict_check_against_construction():
    layered = workloads.layered(0, 2, 4, 0.5)
    checks.check_verdict(layered, "t", None)
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(layered, "t", _Lasso((layered.init,), (layered.init,)))
    with pytest.raises(checks.CheckFailed):
        checks.check_verdict(workloads.needle(0, 2, 3, 1), "t", None)


def test_cli_output_check():
    inst = workloads.needle(0, 2, 3, 1)
    checks.check_cli_output(inst, "CYCLE\nstem: 0 4 5 6 7\ncycle: 7 8\n")
    for bad in ("NO-CYCLE\n", "CYCLE\nstem: 0 4 5 6\ncycle: 7 8\n", "CYCLE\n",
                "CYCLE\nstem: 0 4 x\ncycle: 7 8\n", "", "maybe\n"):
        with pytest.raises(checks.CheckFailed):
            checks.check_cli_output(inst, bad)
    layered = workloads.layered(0, 2, 4, 0.5)
    checks.check_cli_output(layered, "NO-CYCLE\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli_output(layered, "CYCLE\nstem: 0\ncycle: 0\n")


def test_reference_walk_enters_every_reachable_state_once():
    import run

    for inst in (workloads.layered(5, 3, 6, 0.5), workloads.needle(5, 4, 3, 2)):
        assert run.reference_walk(inst.edges, inst.init) == inst.reachable
    inst = workloads.needle(5, 4, 3, 2)
    assert run.reference_walk(inst.edges, inst.num_states - 1) == 2  # the 2-cycle alone


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-needle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
