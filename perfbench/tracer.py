"""In-memory spans for the traced run.

A span has an id, the id of the span that caused it, the op it belongs
to, a name, start and end times and free-form attributes.  Spans stay in
memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._op = 0

    def new_op(self) -> None:
        self._op += 1

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time a block.  A replayed stage names its op's span as ``parent``."""
        rec = {"id": len(self.spans), "parent": parent, "op": self._op, "name": name, "attrs": attrs}
        self.spans.append(rec)
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["t1"] - s["t0"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Self time of each span called ``name``: its duration minus the
        durations of its direct children, except children marked
        ``nested`` (replays of work that another child already covers)."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and not s["attrs"].get("nested"):
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["t1"] - s["t0"]
        return [s["t1"] - s["t0"] - covered.get(s["id"], 0.0) for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
