"""Process-wide metrics registry: counters, gauges, and histograms.

Every pipeline module (Indexer, Reranker, Verifier, the word table, the
batch engine) reports into one named registry instead of keeping
hand-rolled counter attributes.  Two properties matter:

* **thread safety** — all instruments take their own lock; the
  service's event loop and its verifying thread increment freely;
* **scoped attribution** — a :class:`Scope` captures the increments made
  *by the thread that activated it*, not process-wide deltas: a
  campaign's scope sees neither an earlier campaign's counts nor the
  serving loop's (the bug the old ``BatchStats`` delta arithmetic
  had).

Instrument names are dotted lowercase (``verifier.verifications``); the
catalogue lives in docs/observability.md.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: default latency buckets (seconds) for duration histograms
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)


class Scope:
    """A per-campaign view of counter/histogram activity.

    While active on a thread (``registry.activate(scope)``), every
    counter increment and histogram observation made from that thread is
    mirrored into the scope.  Values are keyed by instrument name
    (histograms mirror ``<name>.count`` and ``<name>.sum``).  A scope is
    active on the one thread that runs its campaign, so it takes no
    lock.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self._values[name] = self._values.get(name, 0.0) + amount

    def value(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def snapshot(self) -> Dict[str, float]:
        """Name -> accumulated value, sorted by name."""
        return {name: self._values[name] for name in sorted(self._values)}


class Counter:
    """A monotonically increasing named count (int or float amounts)."""

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: amount must be >= 0")
        with self._lock:
            self._value += amount
        for scope in self._registry.active_scopes():
            scope.add(self.name, amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A named value that can move both ways (cache sizes, depths)."""

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram (upper bounds + overflow) with sum/count."""

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(bounds) != len(set(bounds)):
            raise ValueError(f"histogram {name}: duplicate bucket bounds")
        self.name = name
        self.buckets = bounds
        self._registry = registry
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._sum = 0.0
        self._count = 0
        # last (label, value) observed per bucket slot; links latency
        # buckets back to a trace id on the /debug surface — never in
        # the text exposition, which must stay deterministic
        self._exemplars: Dict[int, Tuple[str, float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        slot = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1
            if exemplar:
                self._exemplars[slot] = (exemplar, value)
        for scope in self._registry.active_scopes():
            scope.add(f"{self.name}.count", 1)
            scope.add(f"{self.name}.sum", value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts; the last entry is the overflow bucket."""
        with self._lock:
            return list(self._counts)

    def exemplars(self) -> Dict[str, Dict[str, object]]:
        """Last exemplar seen per bucket, keyed by the bucket's upper
        bound rendered as a string (``"0.05"``, ``"+Inf"`` for the
        overflow slot)."""
        with self._lock:
            snapshot = dict(self._exemplars)
        result: Dict[str, Dict[str, object]] = {}
        for slot in sorted(snapshot):
            bound = (
                "+Inf" if slot == len(self.buckets)
                else repr(self.buckets[slot])
            )
            label, value = snapshot[slot]
            result[bound] = {"label": label, "value": value}
        return result


class MetricsRegistry:
    """Named instruments plus the thread-local scope stack."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # instrument accessors (create-or-fetch; name owns its type)
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
        if instrument is None:
            # construct outside the lock (injected factories are
            # unknown code); a racing creator's instance loses the
            # setdefault and is discarded before anyone observes it
            candidate = factory()
            with self._lock:
                instrument = self._instruments.setdefault(name, candidate)
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name, self), Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, self), Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Create-or-fetch a histogram.

        ``buckets`` customizes the bounds on first creation (serve
        request latencies use a finer scheme than ``DEFAULT_BUCKETS``).
        Passing explicit bounds that disagree with an already-created
        instrument's raises: two call sites silently observing into
        differently-bucketed views of one name is exactly the bug
        per-histogram configuration could otherwise introduce.
        """
        histogram = self._get_or_create(
            name,
            lambda: Histogram(name, self, buckets or DEFAULT_BUCKETS),
            Histogram,
        )
        # empty/None fall back to DEFAULT_BUCKETS (matching the factory
        # above), so only a real bound list can conflict
        if buckets:
            wanted = tuple(sorted(float(b) for b in buckets))
            if wanted != histogram.buckets:
                raise ValueError(
                    f"histogram {name!r} already exists with buckets "
                    f"{histogram.buckets}, not {wanted}"
                )
        return histogram

    # ------------------------------------------------------------------
    # scopes
    # ------------------------------------------------------------------
    def scope(self) -> Scope:
        """A fresh, inactive scope."""
        return Scope()

    def active_scopes(self) -> Tuple[Scope, ...]:
        """Scopes activated on the *current* thread."""
        return tuple(getattr(self._local, "stack", ()))

    @contextmanager
    def activate(self, scope: Scope) -> Iterator[Scope]:
        """Mirror this thread's increments into ``scope`` while active."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(scope)
        try:
            yield scope
        finally:
            stack.remove(scope)

    # ------------------------------------------------------------------
    # export / lifecycle
    # ------------------------------------------------------------------
    def instruments(self) -> Dict[str, object]:
        """Name -> live instrument, a consistent copy of the table.

        Exporters that need more than flat values (the Prometheus
        exposition wants histogram buckets) walk this; the instruments
        themselves stay thread-safe to read."""
        with self._lock:
            return dict(self._instruments)

    def snapshot(self) -> Dict[str, float]:
        """Flat name -> value view (histograms as .count/.sum), sorted."""
        with self._lock:
            instruments = dict(self._instruments)
        flat: Dict[str, float] = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Histogram):
                flat[f"{name}.count"] = float(instrument.count)
                flat[f"{name}.sum"] = instrument.sum
            else:
                flat[name] = instrument.value  # type: ignore[union-attr]
        return flat

    def reset(self) -> None:
        """Drop every instrument (tests only; scopes stay untouched)."""
        with self._lock:
            self._instruments.clear()


#: the process-wide registry every module reports into
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY
