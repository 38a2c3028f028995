"""Pipeline observability: clocks, spans, metrics, and trace export.

The instrumentation backbone for the C4 provenance story: the
provenance store answers *what evidence was used*; this package answers
*what the pipeline did and what it cost*.  Three pieces:

* :mod:`repro.obs.clock` — the injectable time source (monotonic in
  production, a frozen ``TickClock`` in tests);
* :mod:`repro.obs.trace` — span trees with deterministic ids, linked to
  provenance records in both directions;
* :mod:`repro.obs.metrics` — the process-wide registry of counters,
  gauges, and histograms, with per-campaign scopes;
* :mod:`repro.obs.profile` — per-stage wall/CPU self-time attribution
  and the sampling stack profiler (opt-in; default traces unchanged);
* :mod:`repro.obs.events` — the serve flight recorder, a bounded ring
  of structured events behind ``GET /debug/events``.

Export lives in :mod:`repro.obs.export` (stable JSON) and
:mod:`repro.obs.render` (human-readable tree); the full model is
documented in docs/observability.md.
"""

from repro.obs.clock import Clock, MonotonicClock, ThreadCpuClock, TickClock
from repro.obs.events import (
    Event,
    EventLog,
    get_event_log,
    install_event_log,
    uninstall_event_log,
)
from repro.obs.export import (
    TRACE_FORMAT_VERSION,
    load_trace,
    render_trace_json,
    trace_to_dict,
    validate_trace,
    write_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Scope,
    get_registry,
)
from repro.obs.profile import StackSampler, StageEntry, StageProfile
from repro.obs.render import render_tree
from repro.obs.trace import (
    NULL_BRANCH,
    NULL_SPAN,
    SPAN_FAILED,
    SPAN_OK,
    Span,
    SpanBranch,
    Trace,
    Tracer,
    span_id_for,
)

__all__ = [
    "Clock",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_BRANCH",
    "NULL_SPAN",
    "SPAN_FAILED",
    "SPAN_OK",
    "Scope",
    "Span",
    "SpanBranch",
    "StackSampler",
    "StageEntry",
    "StageProfile",
    "TRACE_FORMAT_VERSION",
    "ThreadCpuClock",
    "TickClock",
    "Trace",
    "Tracer",
    "get_event_log",
    "get_registry",
    "install_event_log",
    "load_trace",
    "render_trace_json",
    "render_tree",
    "span_id_for",
    "trace_to_dict",
    "uninstall_event_log",
    "validate_trace",
    "write_trace",
]
