"""In-memory spans around the benchmark's calls into the program.

A span is (id, parent, name, start, end, attrs).  Spans are appended to a
list while the run is live and written out as JSON lines once it ends;
nothing is recorded when tracing is off.
"""

from __future__ import annotations

import json
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, **attrs) -> int:
        """Record a finished span and return its id (-1 when tracing is off)."""
        if not self.enabled:
            return -1
        self.spans.append((len(self.spans), parent, name, start, end, attrs))
        return len(self.spans) - 1

    def open(self, name: str, start: float, parent: int = -1) -> int:
        """Reserve a span whose end is filled in later by close()."""
        return self.add(name, start, start, parent)

    def close(self, span: int, end: float, **attrs) -> None:
        if span >= 0:
            sid, parent, name, start, _, old = self.spans[span]
            self.spans[span] = (sid, parent, name, start, end, {**old, **attrs})

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out

    def write(self, path: Path, summary: dict) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
