"""In-memory spans recorded around the benchmark's calls into the program.

A span has a name ``<layer>.<call>``, a start and end (``perf_counter``
seconds), the id of the span that was open when it began, and the id of the
query it belongs to. Spans stay in memory until ``write`` saves them as JSON
lines.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent id or None, query id]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.query: str | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)

    def sample(self, name: str, value: float) -> None:
        """Record a value measured at a span boundary."""
        self.samples[name].append(value)

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Time the block; yields the span record, whose end is set on exit."""
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.query]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def durations(self, name: str, query_prefix: str = "") -> list[float]:
        return [
            end - start
            for span_name, start, end, _, query in self.spans
            if span_name == name and (query or "").startswith(query_prefix)
        ]

    def self_times(self, query_prefix: str = "") -> dict[str, float]:
        """Seconds per layer (the name's prefix before the first dot) not
        covered by child spans, over spans whose query id has the prefix."""
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, query) in enumerate(self.spans):
            if (query or "").startswith(query_prefix):
                out[name.split(".", 1)[0]] += end - start - child_time[i]
        return out

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query": query,
                        }
                    )
                    + "\n"
                )
