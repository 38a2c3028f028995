"""Span recording from outside the program.

The benchmark walks one object through the pipeline itself and wraps a
span around each call into a layer's public function: name, start,
end, the span that caused it, and a trace id shared by every span of
one object.  Spans stay in memory until the run ends.  A layer's *self
time* is its span's duration minus the part of that interval its child
spans cover (overlapping children are merged first, so time is never
subtracted twice).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from bench.measure import now


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    trace_id: str
    name: str
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "trace": self.trace_id,
            "name": self.name,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans; ``span()`` nests under the innermost open span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._trace_id = ""

    def begin_trace(self, trace_id: str) -> None:
        if self._stack:
            raise RuntimeError("begin_trace inside an open span")
        self._trace_id = trace_id

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            len(self.spans), self._trace_id, name, parent, now(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = now()
            self._stack.pop()


class NullRecorder:
    """The recorder of untraced replays: same interface, records
    nothing (the correctness oracle runs through this one)."""

    spans: Sequence[Span] = ()

    def begin_trace(self, trace_id: str) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        yield None


def covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id -> duration minus the time its children cover.

    Children are clipped to the parent's interval and merged, so a
    child that overruns its parent or overlaps a sibling never drives
    the self time negative or subtracts an instant twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, []))
        for span in spans
    }
