"""Shared per-state flags and accept counters.

The store is plain data with a one-thread contract: the detectors'
workers take turns in the thread that drives race and interleave only
where their searches yield (see search.py), so between two yields one
worker reads and writes the store alone.  Nothing here takes a lock,
and the store is not safe for use by several threads at once.  A run
ends by closing its workers' searches, so no stop flag lives here.

Global flags (red, blue, dangerous, safe) are monotone: once set they
stay set for the whole run.  Each flag has its own plane, one
bytearray with a byte per state, so the flags cost 4 bytes per state;
a flag is read as plane(bit)[s] and set with a plain store of 1.
"""

from __future__ import annotations

RED = 1
BLUE = 2
DANGEROUS = 4
SAFE = 8  # red as proved by nmc's repairs, which must not trust optimistic red
FLAGS = (RED, BLUE, DANGEROUS, SAFE)  # one plane each, in dump_csv's column order

# Worker-local color values (one byte per state, owned by a single worker).
WHITE, CYAN, LOCAL_BLUE, PINK = 0, 1, 2, 3


class UnderflowFault(RuntimeError):
    """An accept counter would have gone negative: a protocol bug."""


class ColorStore:
    """One byte plane per global flag, plus accept counters.

    plane(bit) is public for inner loops, which read it and publish with
    a plain store of 1.
    """

    def __init__(self, num_states: int, accepting=()):
        self.num_states = num_states
        self._planes = {bit: bytearray(num_states) for bit in FLAGS}
        self.accept_mask = bytearray(num_states)
        for a in accepting:
            self.accept_mask[a] = 1
        self._counters = [0] * num_states

    def plane(self, bit: int) -> bytearray:
        """The byte plane of one flag: nonzero at the states that have it."""
        return self._planes[bit]

    def counter_adjust(self, state: int, delta: int) -> int:
        """Add delta to the state's accept counter; returns the new value."""
        assert self.accept_mask[state], "counters exist only for accepting states"
        value = self._counters[state] + delta
        if value < 0:
            raise UnderflowFault(f"counter for state {state} dropped below zero")
        self._counters[state] = value
        return value

    def counter_value(self, state: int) -> int:
        return self._counters[state]

    def dump_csv(self) -> str:
        """Post-mortem view: one 'state,red,blue,dangerous,safe,count' row per state."""
        lines = ["state,red,blue,dangerous,safe,count"]
        planes = [self._planes[bit] for bit in FLAGS]
        for s in range(self.num_states):
            bits = ",".join("1" if p[s] else "0" for p in planes)
            lines.append(f"{s},{bits},{self._counters[s]}")
        return "\n".join(lines) + "\n"
