"""Span tracing with deterministic ids.

A trace is a tree of :class:`Span` objects describing what one pipeline
execution did: ``verify_batch`` → per-object ``verify`` →
``retrieve:coarse:<modality>`` / ``rerank:<modality>`` → ``verify_pool``
→ per-evidence ``verdict``.  Three design rules keep traces useful as a
*reproducibility* artifact, not just a profiling one:

* **deterministic ids** — a span's id is a digest of
  ``(trace id, path)`` where the path encodes each ancestor's name and
  sibling index, so the same campaign produces the same span ids on
  every run;
* **injectable time** — all timestamps come from the tracer's
  :class:`~repro.obs.clock.Clock`; under a frozen
  :class:`~repro.obs.clock.TickClock` the whole trace is byte-stable;
* **registered on open** — a span joins its tracer's trace the moment
  it opens; a :class:`SpanBranch` only numbers the spans it opens under
  each parent, and :meth:`Tracer.trace` orders them by position, not by
  the order they opened.

Span attributes are restricted to values that are deterministic per
input (object ids, depths, hit counts, verdicts, planned dedup).
Quantities that depend on the run — actual cache hit tallies — belong
in :mod:`repro.obs.metrics` instead, so two runs of one campaign export
identical traces.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.obs.clock import Clock, MonotonicClock

#: span statuses (mirrors report/record statuses)
SPAN_OK = "OK"
SPAN_FAILED = "FAILED"

#: attribute value types a span may carry
AttrValue = Union[str, int, float, bool]


def span_id_for(trace_id: str, path: str) -> str:
    """Deterministic 16-hex-digit span id from (trace id, path)."""
    digest = hashlib.blake2b(
        f"{trace_id}|{path}".encode("utf-8"), digest_size=8
    )
    return digest.hexdigest()


@dataclass
class Span:
    """One timed, attributed node of a trace tree."""

    trace_id: str
    span_id: str
    parent_id: str
    name: str
    index: int
    path: str
    start: float
    end: float = 0.0
    status: str = SPAN_OK
    error: str = ""
    record_id: str = ""
    attributes: Dict[str, AttrValue] = field(default_factory=dict)
    #: chain of sibling indexes from the root; orders spans depth-first
    sort_key: Tuple[int, ...] = ()
    #: thread-CPU readings, stamped only when the tracer carries a
    #: ``cpu_clock`` (the opt-in profiling path) — ``None`` otherwise,
    #: and absent from exports, so default traces are unchanged
    cpu_start: Optional[float] = None
    cpu_end: Optional[float] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def cpu_duration(self) -> Optional[float]:
        """CPU seconds this span's thread spent inside it, when profiled."""
        if self.cpu_start is None or self.cpu_end is None:
            return None
        return max(0.0, self.cpu_end - self.cpu_start)

    @property
    def failed(self) -> bool:
        return self.status == SPAN_FAILED

    def set(self, key: str, value: AttrValue) -> None:
        """Attach one attribute."""
        self.attributes[key] = value


@dataclass(frozen=True)
class Trace:
    """An immutable, depth-first-ordered view of one finished trace."""

    trace_id: str
    spans: Tuple[Span, ...]

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def root(self) -> Optional[Span]:
        for span in self.spans:
            if not span.parent_id:
                return span
        return None

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def record_ids(self) -> List[str]:
        """Every provenance record id referenced, first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.record_id:
                seen.setdefault(span.record_id, None)
        return list(seen)


class Tracer:
    """Builds one trace, on the thread that runs its campaign.

    ``cpu_clock`` is the profiling opt-in: when set, every span is
    additionally stamped with thread-CPU readings on open and close
    (see :class:`~repro.obs.clock.ThreadCpuClock`).  The default —
    ``None`` — leaves spans exactly as before, so untraced-by-profile
    runs export byte-identical traces.
    """

    def __init__(
        self,
        trace_id: str,
        clock: Optional[Clock] = None,
        cpu_clock: Optional[Clock] = None,
    ) -> None:
        self.trace_id = trace_id
        self.clock = clock or MonotonicClock()
        self.cpu_clock = cpu_clock
        self._spans: List[Span] = []

    # ------------------------------------------------------------------
    # span construction
    # ------------------------------------------------------------------
    def open_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        index: int = 0,
        attributes: Optional[Mapping[str, AttrValue]] = None,
        record_id: str = "",
    ) -> Span:
        """Create and register a span; ``start`` is set now."""
        if parent is None:
            path = f"{index}:{name}"
            parent_id = ""
            sort_key: Tuple[int, ...] = (index,)
        else:
            path = f"{parent.path}/{index}:{name}"
            parent_id = parent.span_id
            sort_key = parent.sort_key + (index,)
        span = Span(
            trace_id=self.trace_id,
            span_id=span_id_for(self.trace_id, path),
            parent_id=parent_id,
            name=name,
            index=index,
            path=path,
            start=self.clock.now(),
            record_id=record_id,
            attributes=dict(attributes or {}),
            sort_key=sort_key,
            cpu_start=(
                self.cpu_clock.now() if self.cpu_clock is not None else None
            ),
        )
        self._spans.append(span)
        return span

    def root(
        self,
        name: str,
        attributes: Optional[Mapping[str, AttrValue]] = None,
        record_id: str = "",
    ) -> Span:
        """Open the trace's root span."""
        return self.open_span(
            name, parent=None, index=0,
            attributes=attributes, record_id=record_id,
        )

    def close(self, span: Span, status: str = SPAN_OK, error: str = "") -> None:
        """Stamp a span's end time and final status."""
        span.end = self.clock.now()
        if self.cpu_clock is not None:
            span.cpu_end = self.cpu_clock.now()
        span.status = status
        span.error = error

    def branch(self, first_index: int = 0) -> "SpanBranch":
        """A sibling-index counter: the spans opened through it are
        numbered per parent.

        Sibling indexes count up from ``first_index``; a negative one
        sorts the branch's spans ahead of siblings other branches hang
        under the same parent (setup work ahead of the objects)."""
        return SpanBranch(self, first_index)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def trace(self) -> Trace:
        """Snapshot the registered spans as a depth-first-ordered Trace."""
        spans = tuple(sorted(self._spans, key=lambda s: s.sort_key))
        return Trace(trace_id=self.trace_id, spans=spans)


class SpanBranch:
    """Opens spans on its tracer, numbering each parent's children.

    A span it opens is registered with the tracer at once; the branch
    keeps only the next sibling index per parent.
    """

    def __init__(self, tracer: Tracer, first_index: int = 0) -> None:
        self._tracer = tracer
        self._first_index = first_index
        self._next_index: Dict[str, int] = {}

    def _auto_index(self, parent: Optional[Span]) -> int:
        parent_id = parent.span_id if parent is not None else ""
        index = self._next_index.get(parent_id, self._first_index)
        self._next_index[parent_id] = index + 1
        return index

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        index: Optional[int] = None,
        attributes: Optional[Mapping[str, AttrValue]] = None,
        record_id: str = "",
    ) -> Iterator[Span]:
        """Open a child span for the ``with`` block.

        An exception propagating out of the block marks the span FAILED
        with the one-line error (every enclosing span fails the same way
        as the exception unwinds) and re-raises.
        """
        if index is None:
            index = self._auto_index(parent)
        span = self._tracer.open_span(
            name, parent=parent, index=index,
            attributes=attributes, record_id=record_id,
        )
        cpu_clock = self._tracer.cpu_clock
        try:
            yield span
        except BaseException as exc:
            span.end = self._tracer.clock.now()
            if cpu_clock is not None:
                span.cpu_end = cpu_clock.now()
            span.status = SPAN_FAILED
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        else:
            span.end = self._tracer.clock.now()
            if cpu_clock is not None:
                span.cpu_end = cpu_clock.now()


class _NullSpan:
    """Attribute sink for untraced runs; also its own ``with`` block, so
    an untraced span costs no generator."""

    __slots__ = ()

    def set(self, key: str, value: AttrValue) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


class _NullBranch:
    """No-op branch so instrumented code needs no ``if traced:`` forks."""

    __slots__ = ()

    def span(
        self,
        name: str,
        parent=None,
        index: Optional[int] = None,
        attributes=None,
        record_id: str = "",
    ) -> _NullSpan:
        return NULL_SPAN


NULL_SPAN = _NullSpan()
NULL_BRANCH = _NullBranch()
