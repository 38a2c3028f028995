"""Service configuration (admission control + lifecycle knobs)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.obs.clock import Clock


@dataclass
class ServeConfig:
    """Knobs of the verification service.

    * ``max_queue`` — requests allowed to wait while one verifies (the
      service verifies one request at a time); a request
      arriving with the queue full is shed with ``429`` and
      ``Retry-After: retry_after_seconds``;
    * ``retry_after_seconds`` — the backoff hint shed responses carry;
    * ``max_body_bytes`` / ``max_batch_objects`` — request-size guards
      (``413`` / ``400``);
    * ``trace_cache_size`` — finished request traces kept for
      ``GET /trace/<trace_id>`` (oldest evicted first);
    * ``event_log_size`` — flight-recorder ring capacity (the last N
      structured events behind ``GET /debug/events``);
    * ``debug_profile_max_seconds`` — upper clamp on the ``seconds``
      a ``GET /debug/profile`` call may sample for;
    * ``clock`` — the injectable time source for request metrics
      (defaults to the system's clock; tests pin a TickClock).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_queue: int = 16
    retry_after_seconds: float = 1.0
    max_body_bytes: int = 1 << 20
    max_batch_objects: int = 256
    trace_cache_size: int = 512
    event_log_size: int = 512
    debug_profile_max_seconds: float = 10.0
    clock: Optional[Clock] = None

    #: the cap ``parse_batch`` takes; the server verifies a batch on its
    #: one verifying thread whatever the body asks.  Kept only for
    #: ``bench/serve.py``'s call (ROADMAP item 1(e))
    batch_max_workers: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.retry_after_seconds <= 0:
            raise ValueError(
                f"retry_after_seconds must be > 0, "
                f"got {self.retry_after_seconds}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.max_batch_objects < 1:
            raise ValueError(
                f"max_batch_objects must be >= 1, "
                f"got {self.max_batch_objects}"
            )
        if self.trace_cache_size < 1:
            raise ValueError(
                f"trace_cache_size must be >= 1, got {self.trace_cache_size}"
            )
        if self.event_log_size < 1:
            raise ValueError(
                f"event_log_size must be >= 1, got {self.event_log_size}"
            )
        if self.debug_profile_max_seconds <= 0:
            raise ValueError(
                f"debug_profile_max_seconds must be > 0, "
                f"got {self.debug_profile_max_seconds}"
            )
