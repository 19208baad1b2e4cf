"""Verdicts, lasso counterexamples, per-worker work accounting, and deadlines."""

from __future__ import annotations

from time import perf_counter


class WatchdogTimeout(RuntimeError):
    """Raised when a run passes its wall-clock deadline."""


def check_deadline(deadline: float | None) -> None:
    """Raise WatchdogTimeout once perf_counter() is past deadline; None never expires."""
    if deadline is not None and perf_counter() > deadline:
        raise WatchdogTimeout("run passed its deadline")


class Lasso:
    """Counterexample: a stem from init to a cycle through an accepting state.

    stem[0] is the initial state, stem[-1] equals cycle[0], consecutive
    states are connected by edges, and the last cycle state has an edge
    back to cycle[0].  accept_index points at an accepting cycle state.
    Immutable and hashable; equal to a Lasso of the same three fields.
    """

    __slots__ = ("stem", "cycle", "accept_index")

    def __init__(self, stem: tuple[int, ...], cycle: tuple[int, ...], accept_index: int):
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "accept_index", accept_index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.stem, self.cycle, self.accept_index) == (other.stem, other.cycle, other.accept_index)

    def __hash__(self):
        return hash((self.stem, self.cycle, self.accept_index))

    def __repr__(self) -> str:
        return f"Lasso(stem={self.stem!r}, cycle={self.cycle!r}, accept_index={self.accept_index!r})"


class WorkerStats:
    """Counters owned by one worker; never shared while a run is live.

    The counters are __slots__, in order; two WorkerStats are equal when
    every counter is.
    """

    __slots__ = ("blue_expansions", "red_expansions", "repair_expansions", "max_stack_depth",
                 "waits", "helper_joins", "dangerous_marks")

    def __init__(self, blue_expansions: int = 0, red_expansions: int = 0, repair_expansions: int = 0,
                 max_stack_depth: int = 0, waits: int = 0, helper_joins: int = 0, dangerous_marks: int = 0):
        self.blue_expansions = blue_expansions
        self.red_expansions = red_expansions
        self.repair_expansions = repair_expansions
        self.max_stack_depth = max_stack_depth
        self.waits = waits
        self.helper_joins = helper_joins
        self.dangerous_marks = dangerous_marks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


class WorkStats:
    """Per-run aggregate: one WorkerStats per worker plus run-level extras."""

    __slots__ = ("workers", "wall_time", "extras")

    def __init__(self, workers: list[WorkerStats], wall_time: float):
        self.workers = workers
        self.wall_time = wall_time
        # Algorithm-specific scalars, set after the run: dangerous_count,
        # repair_states, owcty_rounds, map_hits.  Absent keys mean zero.
        self.extras: dict[str, int] = {}

    @property
    def blue_expansions(self) -> int:
        return sum(w.blue_expansions for w in self.workers)

    @property
    def red_expansions(self) -> int:
        return sum(w.red_expansions for w in self.workers)

    @property
    def repair_expansions(self) -> int:
        return sum(w.repair_expansions for w in self.workers)

    @property
    def waits(self) -> int:
        return sum(w.waits for w in self.workers)

    @property
    def helper_joins(self) -> int:
        return sum(w.helper_joins for w in self.workers)

    @property
    def total_expansions(self) -> int:
        return self.blue_expansions + self.red_expansions + self.repair_expansions


class Verdict:
    """Outcome of one detector run.  lasso is None exactly for NO-CYCLE.

    winner is the worker that reported the cycle, if any.
    """

    __slots__ = ("lasso", "stats", "winner")

    def __init__(self, lasso: Lasso | None, stats: WorkStats, winner: int | None = None):
        self.lasso = lasso
        self.stats = stats
        self.winner = winner

    @property
    def cycle_found(self) -> bool:
        return self.lasso is not None
