"""In-memory spans for the traced benchmark run.

Spans are recorded around calls into the library from the benchmark's own
code; nothing inside the package is instrumented.  Each span keeps its name,
the operation it belongs to, its parent span and its start and end in seconds
since the tracer was created.
"""

import contextlib
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.op = None
        self.spans = []
        self._by_op = defaultdict(list)
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(record)
        self._by_op[self.op].append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter() - self.t0
            self._open.pop()

    def _inside(self, record, ancestor: str) -> bool:
        parent = record["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def totals(self, op, within: str | None = None) -> dict:
        """Seconds per span name for one operation, optionally only spans
        nested (at any depth) inside a span of the given name."""
        out = defaultdict(float)
        for record in self._by_op[op]:
            if within is None or self._inside(record, within):
                out[record["name"]] += record["end"] - record["start"]
        return out

    def dump(self, path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            json.dump({**header, "spans": self.spans}, stream)


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()
