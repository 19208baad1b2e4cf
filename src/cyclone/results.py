"""Verdicts, lasso counterexamples, per-worker work accounting, and deadlines."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


class WatchdogTimeout(RuntimeError):
    """Raised when a run passes its wall-clock deadline."""


def check_deadline(deadline: float | None) -> None:
    """Raise WatchdogTimeout once perf_counter() is past deadline; None never expires."""
    if deadline is not None and perf_counter() > deadline:
        raise WatchdogTimeout("run passed its deadline")


@dataclass(frozen=True, slots=True)
class Lasso:
    """Counterexample: a stem from init to a cycle through an accepting state.

    stem[0] is the initial state, stem[-1] equals cycle[0], consecutive
    states are connected by edges, and the last cycle state has an edge
    back to cycle[0].  accept_index points at an accepting cycle state.
    """

    stem: tuple[int, ...]
    cycle: tuple[int, ...]
    accept_index: int


@dataclass(slots=True)
class WorkerStats:
    """Counters owned by one worker; never shared while a run is live."""

    blue_expansions: int = 0
    red_expansions: int = 0
    repair_expansions: int = 0
    max_stack_depth: int = 0
    waits: int = 0
    helper_joins: int = 0
    dangerous_marks: int = 0


@dataclass(slots=True)
class WorkStats:
    """Per-run aggregate: one WorkerStats per worker plus run-level extras."""

    workers: list[WorkerStats] = field(default_factory=list)
    wall_time: float = 0.0
    # Algorithm-specific scalars: dangerous_count, repair_states,
    # owcty_rounds, map_hits.  Absent keys mean zero.
    extras: dict[str, int] = field(default_factory=dict)

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


@dataclass(slots=True)
class Verdict:
    """Outcome of one detector run.  lasso is None exactly for NO-CYCLE."""

    lasso: Lasso | None
    stats: WorkStats
    winner: int | None = None  # worker that reported the cycle, if any

    @property
    def cycle_found(self) -> bool:
        return self.lasso is not None
