"""Spans and counters recorded around the benchmark's calls into gch.

Spans are kept in memory and written out once, when the traced round
ends.  The untraced path uses ``NullTracer``, whose spans cost one call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    enabled = False

    def span(self, name: str, job: str):
        return nullcontext()

    def count(self, name: str, amount: int) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "job": job,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def seconds(self, name: str, job: str | None = None) -> float:
        """Time covered by spans of a layer, optionally of one job."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (job is None or s["job"] == job)
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
