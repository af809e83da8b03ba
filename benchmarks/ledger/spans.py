"""Spans around the ledger's own calls into ``repro``.

Recorded from the ledger's files only — one span per unit, slice and
public call the ledger makes — kept in memory and written out once at
exit.  Spans inside ``src/`` are a later change.  Stdlib only, and only
modules ``repro`` itself imports, so that the set-up child pays nothing
for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from pathlib import Path


class SpanRecorder:
    """In-memory spans: name, start, end, parent, unit id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def _open(self, name: str, unit: int, start: float, end: float) -> Dict[str, Any]:
        parent = self._stack[-1] if self._stack else -1
        if unit < 0 and parent >= 0:
            unit = self.spans[parent]["unit"]
        record = {
            "id": len(self.spans), "name": name, "parent": parent, "unit": unit,
            "start": start, "end": end,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, unit: int = -1) -> Iterator[None]:
        record = self._open(name, unit, time.perf_counter(), 0.0)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span under the currently open one (for intervals
        the ledger only learns about from a callback)."""
        self._open(name, -1, start, end)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        import json

        path.write_text(json.dumps({"spans": self.spans}))


@contextmanager
def maybe_span(
    spans: Optional[SpanRecorder], name: str, unit: int = -1
) -> Iterator[None]:
    """``spans.span(...)`` when tracing, nothing at all when not."""
    if spans is None:
        yield
    else:
        with spans.span(name, unit):
            yield
