"""Admission control: a bounded FIFO in front of the one verifying thread.

The service's load-shedding story in one class.  A request that wants
pipeline time must :meth:`~AdmissionController.admit` first:

* if no verify is running it runs immediately;
* if one is, it waits in a FIFO queue — but only ``max_queue``
  requests may wait;
* beyond that the request is **shed**: :class:`ServiceOverloaded`
  carries the ``Retry-After`` hint and the server answers ``429``.

Shedding at admission is what keeps an overloaded server's latency
bounded — work the server cannot start soon is refused up front instead
of queueing without limit ("millions of users" behind a finite box).

Every transition is mirrored into the metrics registry:
``serve.inflight`` / ``serve.queue_depth`` gauges (plus
``serve.inflight_peak``, which reads 1 once anything was admitted),
and ``serve.admitted`` / ``serve.shed`` counters.  The controller lives
on the event loop — single-threaded by construction — so its own
counters need no locks; the pipeline work itself happens on the
service's verifying thread *after* admission.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from typing import AsyncIterator, Optional

from repro.obs.clock import Clock, MonotonicClock
from repro.obs.events import EventLog, get_event_log
from repro.obs.metrics import MetricsRegistry


class ServiceOverloaded(Exception):
    """Queue full: the caller should retry after ``retry_after``."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(f"service overloaded; retry after {retry_after}s")
        self.retry_after = retry_after


class AdmissionController:
    """Bounded FIFO queue in front of one verify at a time."""

    def __init__(
        self,
        max_queue: int,
        registry: MetricsRegistry,
        retry_after_seconds: int = 1,
        clock: Optional[Clock] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_queue = max_queue
        self.retry_after_seconds = retry_after_seconds
        self._registry = registry
        # queue waits are timed through the injectable clock (TickClock
        # in tests); admission decisions go to the flight recorder —
        # the explicitly passed one, else whichever is installed
        self._clock = clock or MonotonicClock()
        self._events = events
        # asyncio.Lock wakes waiters in acquisition order: the wait
        # line really is FIFO
        self._turn = asyncio.Lock()
        self._inflight = 0
        self._queued = 0
        self._peak_inflight = 0

    # ------------------------------------------------------------------
    # introspection (event-loop thread)
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def peak_inflight(self) -> int:
        """High-water mark of admissions in flight: 1 once anything was
        admitted (also exported as the ``serve.inflight_peak`` gauge)."""
        return self._peak_inflight

    # ------------------------------------------------------------------
    # the admission path
    # ------------------------------------------------------------------
    def _set_gauges(self) -> None:
        self._registry.gauge("serve.inflight").set(self._inflight)
        self._registry.gauge("serve.queue_depth").set(self._queued)
        self._registry.gauge("serve.inflight_peak").set(self._peak_inflight)

    @asynccontextmanager
    async def admit(self) -> AsyncIterator[None]:
        """Hold the verifying turn for the ``async with`` body.

        Raises :class:`ServiceOverloaded` (without waiting) when a
        verify is running and the wait line is already ``max_queue``
        deep.
        """
        events = self._events if self._events is not None else get_event_log()
        if self._turn.locked() and self._queued >= self.max_queue:
            self._registry.counter("serve.shed").inc()
            events.emit(
                "admission.shed",
                inflight=self._inflight,
                queued=self._queued,
                retry_after=self.retry_after_seconds,
            )
            raise ServiceOverloaded(self.retry_after_seconds)
        enqueued_at = self._clock.now()
        self._queued += 1
        self._set_gauges()
        admitted = False
        try:
            async with self._turn:
                self._queued -= 1
                admitted = True
                self._inflight += 1
                self._peak_inflight = max(
                    self._peak_inflight, self._inflight
                )
                self._registry.counter("serve.admitted").inc()
                events.emit(
                    "admission.admitted",
                    queue_wait_seconds=self._clock.now() - enqueued_at,
                    inflight=self._inflight,
                )
                self._set_gauges()
                try:
                    yield
                finally:
                    self._inflight -= 1
        finally:
            if not admitted:
                # cancelled while waiting in line
                self._queued -= 1
            self._set_gauges()
