"""Serve flight recorder: a bounded ring of structured events.

Metrics answer "how many, how fast" in aggregate; traces answer "what
did *this* request do".  The flight recorder covers the gap between
them — "what just happened on this process, in order": the last N
admission decisions, queue waits, retries, pool evictions, and
slow requests, cheap enough to leave on in production and dumped on
demand via ``GET /debug/events`` or a JSONL export.

Design rules:

* **bounded** — a ``deque(maxlen=capacity)`` ring; an idle reader can
  never make the recorder grow, and a hot loop can never make it leak.
  Overwritten events are counted (``dropped``), never silently lost;
* **ordered** — every event carries a process-wide monotonically
  increasing ``seq``, so readers can detect gaps after overwrite;
* **deterministic in tests** — timestamps come from an injectable
  :class:`~repro.obs.clock.Clock`, like every other timed path;
* **decoupled emitters** — ``core``/``index`` code emits through the
  module-level :func:`get_event_log`, which is a no-op recorder until a
  service :func:`install_event_log`'s its own.  The batch engine does
  not need to know whether it is running under serve.

The current-log pointer is module state held in a dict mutated under a
lock — never ``global`` rebinding, which repro-lint CON003 flags.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Union

from repro.analysis import sanitizer as _sanitizer
from repro.obs.clock import Clock, MonotonicClock

#: default ring capacity (events)
DEFAULT_CAPACITY = 512

#: value types an event field may carry
EventValue = Union[str, int, float, bool]


@dataclass(frozen=True)
class Event:
    """One recorded occurrence.

    ``kind`` is dotted lowercase like metric names
    (``admission.shed``, ``batch.retry``); the catalogue lives in
    docs/observability.md next to the metric catalogue.
    """

    seq: int
    time: float
    kind: str
    fields: Dict[str, EventValue] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "fields": dict(self.fields),
        }


class EventLog:
    """Thread-safe bounded ring of :class:`Event` records."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Clock] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self.clock = clock or MonotonicClock()
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: EventValue) -> Event:
        """Record one event; returns it (mainly for tests)."""
        now = self.clock.now()
        with self._lock:
            self._seq += 1
            event = Event(seq=self._seq, time=now, kind=kind, fields=fields)
            if len(self._ring) == self.capacity:
                self._dropped += 1
                _sanitizer.note_write(self, "_dropped", lock=self._lock)
            self._ring.append(event)
            _sanitizer.note_write(self, "_ring", lock=self._lock)
        return event

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(
        self,
        n: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Event]:
        """The most recent events, oldest first.

        ``kind`` filters by exact kind or dotted prefix
        (``admission`` matches ``admission.shed``); ``n`` keeps only
        the newest n *after* filtering.
        """
        with self._lock:
            snapshot = list(self._ring)
        if kind is not None:
            prefix = kind + "."
            snapshot = [
                e for e in snapshot
                if e.kind == kind or e.kind.startswith(prefix)
            ]
        if n is not None:
            if n < 0:
                raise ValueError(f"n must be >= 0, got {n}")
            snapshot = snapshot[len(snapshot) - min(n, len(snapshot)):]
        return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events overwritten by the ring since construction."""
        with self._lock:
            return self._dropped

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event ever emitted (0 = none)."""
        with self._lock:
            return self._seq

    def to_dict(
        self,
        n: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> Dict[str, object]:
        """JSON-shaped dump: ring metadata plus the selected events."""
        events = self.events(n=n, kind=kind)
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "last_seq": self.last_seq,
            "count": len(events),
            "events": [event.to_dict() for event in events],
        }

    def to_jsonl(
        self,
        n: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> str:
        """One compact JSON object per line, oldest first."""
        lines = [
            json.dumps(event.to_dict(), sort_keys=True, ensure_ascii=False)
            for event in self.events(n=n, kind=kind)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


class _NullEventLog(EventLog):
    """Recorder installed when no service is running: drops everything.

    Keeps ``get_event_log().emit(...)`` an unconditional one-liner at
    every call site — no ``if log is not None`` forks in the batch
    engine.
    """

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, kind: str, **fields: EventValue) -> Event:
        return Event(seq=0, time=0.0, kind=kind, fields=fields)


NULL_EVENT_LOG = _NullEventLog()

# Module state: the currently installed recorder.  A dict mutated under
# a lock (not a rebindable global).
_CURRENT: Dict[str, EventLog] = {"log": NULL_EVENT_LOG}
_CURRENT_LOCK = threading.Lock()


def get_event_log() -> EventLog:
    """The recorder emitters should write to (a no-op sink by default)."""
    with _CURRENT_LOCK:
        return _CURRENT["log"]


def install_event_log(log: EventLog) -> None:
    """Make ``log`` the process-wide recorder (serve startup)."""
    with _CURRENT_LOCK:
        _CURRENT["log"] = log
        _sanitizer.note_write(_CURRENT, "log", lock=_CURRENT_LOCK)


def uninstall_event_log(log: EventLog) -> None:
    """Remove ``log`` if it is still installed (serve shutdown).

    A newer service may already have installed its own recorder; in
    that case the call is a no-op, so shutdown ordering races between
    two services cannot blind the surviving one.
    """
    with _CURRENT_LOCK:
        if _CURRENT["log"] is log:
            _CURRENT["log"] = NULL_EVENT_LOG
            _sanitizer.note_write(_CURRENT, "log", lock=_CURRENT_LOCK)
