"""Output checks that trust nothing in the program under test.

The lasso check reads the benchmark's own edge lists and accepting set
and holds a lasso to the strict contract of the program's Lasso type:
the stem runs from init along edges and ends exactly on cycle[0].
"""

from __future__ import annotations

from workloads import Instance


class CheckFailed(AssertionError):
    """A detector's output contradicts what the construction guarantees."""


def lasso_problem(inst: Instance, stem, cycle, accept_index=None) -> str | None:
    """Why (stem, cycle) is not a lasso of inst, or None when it is one.

    accept_index=None asks only that some cycle state be accepting, which
    is all the command line prints.
    """
    n = inst.num_states
    if not stem or not cycle:
        return "empty stem or cycle"
    if any(not (isinstance(s, int) and 0 <= s < n) for s in (*stem, *cycle)):
        return "state id out of range"
    if stem[0] != inst.init:
        return f"stem starts at {stem[0]}, init is {inst.init}"
    if stem[-1] != cycle[0]:
        return f"stem ends at {stem[-1]}, cycle starts at {cycle[0]}"
    edges = inst.edges
    path = (*stem, *cycle[1:], cycle[0])
    for s, t in zip(path, path[1:]):
        if t not in edges[s]:
            return f"no edge {s} -> {t}"
    if accept_index is None:
        if not any(s in inst.accepting for s in cycle):
            return "no accepting state on the cycle"
    elif not 0 <= accept_index < len(cycle) or cycle[accept_index] not in inst.accepting:
        return f"accept_index {accept_index} does not mark an accepting cycle state"
    if inst.cycle is not None and not set(cycle) <= inst.cycle:
        return f"cycle leaves the only accepting cycle {sorted(inst.cycle)}"
    return None


def check_verdict(inst: Instance, what: str, lasso) -> None:
    """Raise CheckFailed unless the verdict matches the construction."""
    if inst.cycle is None:
        if lasso is not None:
            raise CheckFailed(f"{what} on {inst.name}: CYCLE, but the graph has none")
        return
    if lasso is None:
        raise CheckFailed(f"{what} on {inst.name}: NO-CYCLE, but the graph has one")
    why = lasso_problem(inst, lasso.stem, lasso.cycle, lasso.accept_index)
    if why is not None:
        raise CheckFailed(f"{what} on {inst.name}: bad lasso: {why}")


def check_cli_output(inst: Instance, stdout: str) -> None:
    """Check the CYCLE/NO-CYCLE line and the printed stem and cycle."""
    lines = stdout.splitlines()
    if not lines or lines[0] not in ("CYCLE", "NO-CYCLE"):
        raise CheckFailed(f"check on {inst.name}: no verdict line in {stdout[:80]!r}")
    if lines[0] == "NO-CYCLE":
        if len(lines) != 1:
            raise CheckFailed(f"check on {inst.name}: output after NO-CYCLE")
        if inst.cycle is not None:
            raise CheckFailed(f"check on {inst.name}: NO-CYCLE, but the graph has one")
        return
    if inst.cycle is None:
        raise CheckFailed(f"check on {inst.name}: CYCLE, but the graph has none")
    if len(lines) != 3 or not lines[1].startswith("stem: ") or not lines[2].startswith("cycle: "):
        raise CheckFailed(f"check on {inst.name}: malformed lasso lines {lines[1:]!r}")
    try:
        stem = tuple(int(x) for x in lines[1][6:].split())
        cycle = tuple(int(x) for x in lines[2][7:].split())
    except ValueError:
        raise CheckFailed(f"check on {inst.name}: non-integer state in {lines[1:]!r}") from None
    why = lasso_problem(inst, stem, cycle)
    if why is not None:
        raise CheckFailed(f"check on {inst.name}: bad printed lasso: {why}")
