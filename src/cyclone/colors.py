"""Shared per-state flags, accept counters, and the first-reporter slot.

The detectors' workers take turns in one thread and interleave only
where their searches yield (see search.py), so a run contends for
nothing here; a run ends by closing its workers' searches, so no stop
flag lives here either.  The store keeps its locks all the same, because
its public contract is wider: everything here is safe for unrestricted
concurrent use by threads, as argued below and held by the tests.

Global flags (red, blue, dangerous, safe) are monotone: once set they
stay set for the whole run.  Each flag has its own plane, one
bytearray with a byte per state, so the flags cost 4 bytes per state
and the engine publishes a flag with a plain store of 1, without a lock.
That is sound for three reasons:

- under CPython's interpreter lock a single bytearray item store is
  indivisible, so a reader sees the byte either before or after it;
- a store of 1 is idempotent, so racing writers of one flag agree;
- no flag shares a byte with another, so no read-modify-write exists
  that could overwrite a sibling's bit with a stale copy.

The last point is why the planes matter: endfs and nmc write blue, red,
dangerous and safe to the same state from different workers, and were
those threads, with one flag word per state an unlocked read-modify-write
could lose a dangerous mark, skip its repair and report a wrong no-cycle
verdict.
Only set_flag still takes a lock, for callers that need to know whether
they set a flag first (the exact count of dangerous marks).  Under the
interpreter lock a write that happened before a flag was set is visible
to any reader that observes the flag.
"""

from __future__ import annotations

import threading

RED = 1
BLUE = 2
DANGEROUS = 4
SAFE = 8  # red as proved by nmc's repairs, which must not trust optimistic red
FLAGS = (RED, BLUE, DANGEROUS, SAFE)  # one plane each, in dump_csv's column order

# Worker-local color values (one byte per state, owned by a single worker).
WHITE, CYAN, LOCAL_BLUE, PINK = 0, 1, 2, 3


class UnderflowFault(RuntimeError):
    """An accept counter would have gone negative: a protocol bug."""


class ReporterSlot:
    """First-writer-wins slot for the winning worker's counterexample.

    Exactly one claim ever succeeds per run.
    """

    __slots__ = ("_lock", "worker", "lasso")

    def __init__(self):
        self._lock = threading.Lock()
        self.worker = None
        self.lasso = None

    def claim(self, worker: int, lasso) -> bool:
        with self._lock:
            if self.worker is None:
                self.worker = worker
                self.lasso = lasso
                return True
            return False


class ColorStore:
    """One byte plane per global flag, plus lazy accept counters.

    plane(bit) is public for inner loops, which read it and publish with
    a plain store of 1.  set_flag is for writers that need the previous
    value; it reports it exactly only on a plane that nothing else
    writes, which holds for DANGEROUS.
    """

    def __init__(self, num_states: int, accepting=()):
        self.num_states = num_states
        self._planes = {bit: bytearray(num_states) for bit in FLAGS}
        self.accept_mask = bytearray(num_states)
        for a in accepting:
            self.accept_mask[a] = 1
        self._flag_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters: dict[int, int] = {}

    def plane(self, bit: int) -> bytearray:
        """The byte plane of one flag: nonzero at the states that have it."""
        return self._planes[bit]

    def set_flag(self, state: int, bit: int) -> bool:
        """Set one flag, returning whether it was already set."""
        plane = self._planes[bit]
        with self._flag_lock:
            prev = plane[state]
            plane[state] = 1
            return bool(prev)

    def get_flag(self, state: int, bit: int) -> bool:
        return bool(self._planes[bit][state])

    def counter_adjust(self, state: int, delta: int) -> int:
        """Atomically add delta to the state's accept counter; returns the new value."""
        assert self.accept_mask[state], "counters exist only for accepting states"
        with self._counter_lock:
            value = self._counters.get(state, 0) + delta
            if value < 0:
                raise UnderflowFault(f"counter for state {state} dropped below zero")
            self._counters[state] = value
            return value

    def counter_value(self, state: int) -> int:
        return self._counters.get(state, 0)

    def dump_csv(self) -> str:
        """Post-mortem view: one 'state,red,blue,dangerous,safe,count' row per state."""
        lines = ["state,red,blue,dangerous,safe,count"]
        planes = [self._planes[bit] for bit in FLAGS]
        for s in range(self.num_states):
            bits = ",".join("1" if p[s] else "0" for p in planes)
            lines.append(f"{s},{bits},{self._counters.get(s, 0)}")
        return "\n".join(lines) + "\n"
