"""The injectable clock every timed code path reads through.

DESIGN.md trades the paper's hosted services for seeded, reproducible
components; timing was the one hidden entropy source left.  This module
closes it: production code asks a :class:`Clock` for the time instead
of calling :func:`time.monotonic` / :func:`time.perf_counter` directly,
and tests substitute a :class:`TickClock` so every duration — and
therefore every exported trace — is byte-stable.

This is the **only** module allowed to read the process clock directly;
repro-lint rule OBS001 flags direct ``time.monotonic()`` /
``time.perf_counter()`` calls anywhere else under ``src/repro``.
"""

from __future__ import annotations

import abc
import threading
import time


class Clock(abc.ABC):
    """Monotonic seconds source for spans, metrics, and stage timers."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""


class MonotonicClock(Clock):
    """Production clock: the process's high-resolution monotonic timer."""

    def now(self) -> float:
        return time.perf_counter()


class ThreadCpuClock(Clock):
    """CPU-seconds consumed by the *calling thread*.

    The stage profiler reads wall time and CPU time side by side to
    split "slow because it computed" from "slow because it waited"
    (GIL, locks, I/O).  Readings are only comparable within one thread —
    exactly how spans use them: a span opens and closes on the thread
    that executes its attempt.  Tests substitute a :class:`TickClock`
    here too, so profiled runs stay deterministic.
    """

    def now(self) -> float:
        return time.thread_time()


class TickClock(Clock):
    """Deterministic test clock.

    ``now()`` returns the current value; the clock only moves when the
    test calls :meth:`advance` (or when constructed with a non-zero
    ``step``, which advances it on every read).  A frozen clock — the
    default — keeps two runs of the same campaign byte-identical
    whatever else reads it meanwhile: a stepping clock's readings depend
    on how many ``now()`` calls came before, a frozen clock's do not.
    """

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        self._value = float(start)
        self._step = float(step)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            value = self._value
            self._value += self._step
        return value

    def advance(self, seconds: float = 1.0) -> None:
        """Move the clock forward explicitly (single-threaded tests)."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        with self._lock:
            self._value += float(seconds)
