"""Service configuration (admission control + lifecycle knobs)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass
class ServeConfig:
    """Knobs of the verification service.

    * ``host`` / ``port`` — where the socket binds (``repro serve
      --host/--port``; port 0 picks a free one);
    * ``max_queue`` — requests allowed to wait while one verifies (the
      service verifies one request at a time); a request
      arriving with the queue full is shed with ``429`` and
      ``Retry-After: retry_after_seconds`` (``repro serve --queue``).

    The limits below are constants, not fields: nothing sets them per
    instance.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_queue: int = 16

    #: the backoff hint shed responses carry
    retry_after_seconds: ClassVar[int] = 1
    #: request-size guards: ``413`` past the body size, ``400`` past the
    #: batch length
    max_body_bytes: ClassVar[int] = 1 << 20
    max_batch_objects: ClassVar[int] = 256
    #: finished request traces kept for ``GET /trace/<trace_id>``
    #: (oldest evicted first)
    trace_cache_size: ClassVar[int] = 512
    #: flight-recorder ring capacity (the last N structured events
    #: behind ``GET /debug/events``)
    event_log_size: ClassVar[int] = 512
    #: upper clamp on the ``seconds`` a ``GET /debug/profile`` call may
    #: sample for
    debug_profile_max_seconds: ClassVar[float] = 10.0
    #: the cap ``parse_batch`` takes; the server verifies a batch on its
    #: one verifying thread whatever the body asks.  Kept only for
    #: ``bench/serve.py``'s call (ROADMAP item 1(e))
    batch_max_workers: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
