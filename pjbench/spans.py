"""In-memory spans for the traced run.

A span records a name, a start, an end and the span it ran inside.  Spans
stay in memory while the run works and are written out as JSON once, when
the run ends, so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def total(self, *names: str) -> float:
        """Summed duration of every span carrying one of ``names``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]
