"""Deterministic load generation for the verification service.

Two halves, split on purpose:

* **what** to send — :func:`build_request_mix` derives a seeded request
  mix from the lake itself (claims and tuples over real tables, plus
  small batches).  The mix is byte-stable: same lake + seed + counts
  gives byte-identical request bodies, and :func:`mix_digest` pins that
  in benchmark baselines so a drifting mix can't masquerade as a
  performance change;
* **when** to send it — :class:`LoadGenerator` replays a mix either
  **closed-loop** (``clients`` callers, each waiting for its response
  before sending the next: throughput is whatever the server sustains)
  or **open-loop** (a fixed arrival rate that does *not* slow down when
  the server does — the pattern that actually exposes queueing collapse
  and the admission controller's shedding).

Latency is read through the injectable :class:`~repro.obs.clock.Clock`
(tests pin a ``TickClock``); only arrival pacing touches the event
loop's own timer, because a frozen clock cannot schedule the future.
Reports carry nearest-rank p50/p95/p99, throughput, and shed rate.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datalake.lake import DataLake
from repro.obs.clock import Clock, MonotonicClock
from repro.serve.http import read_response, request_bytes

#: default kind weights for :func:`build_request_mix`
DEFAULT_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("claim", 0.4),
    ("tuple", 0.4),
    ("batch", 0.2),
)

#: objects per generated /verify-batch request
BATCH_SIZE = 4


@dataclass(frozen=True)
class PlannedRequest:
    """One request the harness will replay."""

    kind: str
    method: str
    path: str
    body: bytes


def _corrupt_digits(value: str, rng: random.Random) -> str:
    """A plausibly-wrong variant of a cell value (flips one digit)."""
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    if not digits:
        return value + "x"
    slot = digits[rng.randrange(len(digits))]
    old = value[slot]
    new = str((int(old) + 1 + rng.randrange(8)) % 10)
    return value[:slot] + new + value[slot + 1:]


def _verify_body(lake: DataLake, rng: random.Random) -> Dict[str, object]:
    """One claim/tuple verify body over a random real cell."""
    tables = lake.tables()
    table = tables[rng.randrange(len(tables))]
    row_index = rng.randrange(table.num_rows)
    row = table.row(row_index)
    key_column = table.key_column or table.columns[0]
    value_columns = [c for c in table.columns if c != key_column]
    column = (
        value_columns[rng.randrange(len(value_columns))]
        if value_columns else key_column
    )
    truthful = rng.random() < 0.5
    value = row.get(column) or ""
    if not truthful:
        value = _corrupt_digits(value, rng)
    if rng.random() < 0.5:
        subject = row.get(key_column) or ""
        return {
            "kind": "claim",
            "text": f"the {column} of {subject} is {value}",
        }
    body: Dict[str, object] = {
        "kind": "tuple",
        "table_id": table.table_id,
        "row": row_index,
        "column": column,
    }
    if not truthful:
        body["value"] = value
    return body


def build_request_mix(
    lake: DataLake,
    count: int,
    seed: int = 0,
    weights: Sequence[Tuple[str, float]] = DEFAULT_WEIGHTS,
) -> List[PlannedRequest]:
    """``count`` seeded requests over the lake's own content.

    Bodies are ``json.dumps(..., sort_keys=True)`` of seeded draws, so
    the whole mix is byte-stable for a given (lake, seed, count,
    weights) — the property :func:`mix_digest` asserts.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    kinds = [kind for kind, _ in weights]
    cum: List[float] = []
    total = 0.0
    for _, weight in weights:
        if weight < 0:
            raise ValueError(f"weights must be >= 0, got {weight}")
        total += weight
        cum.append(total)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    rng = random.Random(seed)
    requests: List[PlannedRequest] = []
    for _ in range(count):
        draw = rng.random() * total
        kind = kinds[-1]
        for name, bound in zip(kinds, cum):
            if draw < bound:
                kind = name
                break
        if kind == "batch":
            payload: Dict[str, object] = {
                "objects": [
                    _verify_body(lake, rng) for _ in range(BATCH_SIZE)
                ],
                "max_workers": 2,
            }
            path = "/verify-batch"
        elif kind in ("claim", "tuple"):
            body = _verify_body(lake, rng)
            # re-draw until the body matches the asked-for kind, so the
            # weights mean what they say
            while body["kind"] != kind:
                body = _verify_body(lake, rng)
            payload, path = body, "/verify"
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        requests.append(PlannedRequest(
            kind=kind,
            method="POST",
            path=path,
            body=json.dumps(payload, sort_keys=True).encode("utf-8"),
        ))
    return requests


def mix_digest(requests: Sequence[PlannedRequest]) -> str:
    """Stable hex digest of a mix (pins benchmark inputs)."""
    digest = hashlib.blake2b(digest_size=8)
    for request in requests:
        digest.update(request.method.encode("utf-8"))
        digest.update(request.path.encode("utf-8"))
        digest.update(request.body)
        digest.update(b"\x00")
    return digest.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100); 0.0 on empty input."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class LoadReport:
    """What one load run measured."""

    mode: str
    total: int
    statuses: Dict[int, int]
    latencies: List[float] = field(repr=False, default_factory=list)
    duration_seconds: float = 0.0
    #: request path -> that route's latencies; a mixed run's overall
    #: percentiles hide the split between cheap /verify and expensive
    #: /verify-batch, which is exactly what the per-endpoint breakdown
    #: exists to show
    route_latencies: Dict[str, List[float]] = field(
        repr=False, default_factory=dict
    )

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def shed(self) -> int:
        return self.statuses.get(429, 0)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0

    @property
    def throughput(self) -> float:
        """Completed requests per measured second (0 when the injected
        clock never advanced)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.total / self.duration_seconds

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    def per_endpoint(self) -> Dict[str, Dict[str, object]]:
        """Path -> {count, p50, p95, p99}, sorted by path."""
        return {
            path: {
                "count": len(self.route_latencies[path]),
                "p50": percentile(self.route_latencies[path], 50),
                "p95": percentile(self.route_latencies[path], 95),
                "p99": percentile(self.route_latencies[path], 99),
            }
            for path in sorted(self.route_latencies)
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "total": self.total,
            "ok": self.ok,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "statuses": {
                str(code): self.statuses[code]
                for code in sorted(self.statuses)
            },
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput,
            "latency_p50": self.latency_percentile(50),
            "latency_p95": self.latency_percentile(95),
            "latency_p99": self.latency_percentile(99),
            "per_endpoint": self.per_endpoint(),
        }

    def summary(self) -> str:
        return (
            f"{self.mode}: {self.total} requests, {self.ok} ok, "
            f"{self.shed} shed ({self.shed_rate:.0%}); "
            f"p50 {self.latency_percentile(50) * 1e3:.1f}ms "
            f"p95 {self.latency_percentile(95) * 1e3:.1f}ms "
            f"p99 {self.latency_percentile(99) * 1e3:.1f}ms; "
            f"{self.throughput:.1f} req/s"
        )


class LoadGenerator:
    """Replay a request mix against a running service."""

    def __init__(
        self, host: str, port: int, clock: Optional[Clock] = None
    ) -> None:
        self.host = host
        self.port = port
        self.clock = clock or MonotonicClock()

    # ------------------------------------------------------------------
    # one request, shared by both loops
    # ------------------------------------------------------------------
    async def _send(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: PlannedRequest,
        keep_alive: bool,
    ) -> Tuple[int, float]:
        started = self.clock.now()
        writer.write(request_bytes(
            request.method, request.path, request.body,
            host=self.host, keep_alive=keep_alive,
        ))
        await writer.drain()
        status, _, _ = await read_response(reader)
        return status, self.clock.now() - started

    # ------------------------------------------------------------------
    # closed loop: N clients, each one-request-at-a-time
    # ------------------------------------------------------------------
    async def _run_closed(
        self, requests: Sequence[PlannedRequest], clients: int
    ) -> LoadReport:
        statuses: Dict[int, int] = {}
        latencies: List[float] = []
        by_route: Dict[str, List[float]] = {}

        async def client(worker: int) -> None:
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
            try:
                for request in requests[worker::clients]:
                    status, latency = await self._send(
                        reader, writer, request, keep_alive=True
                    )
                    statuses[status] = statuses.get(status, 0) + 1
                    latencies.append(latency)
                    by_route.setdefault(request.path, []).append(latency)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

        started = self.clock.now()
        await asyncio.gather(*(client(w) for w in range(clients)))
        duration = self.clock.now() - started
        return LoadReport(
            mode=f"closed[{clients}]",
            total=len(requests),
            statuses=statuses,
            latencies=latencies,
            duration_seconds=duration,
            route_latencies=by_route,
        )

    def run_closed(
        self, requests: Sequence[PlannedRequest], clients: int = 4
    ) -> LoadReport:
        """``clients`` persistent connections, next request only after
        the previous response — throughput self-limits to the server."""
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        return asyncio.run(self._run_closed(requests, clients))

    # ------------------------------------------------------------------
    # open loop: fixed arrival rate, one connection per request
    # ------------------------------------------------------------------
    async def _run_open(
        self, requests: Sequence[PlannedRequest], rate: float
    ) -> LoadReport:
        statuses: Dict[int, int] = {}
        latencies: List[float] = []
        by_route: Dict[str, List[float]] = {}
        loop = asyncio.get_running_loop()
        # pacing reads the loop's timer, not the metrics clock: a frozen
        # TickClock measures latency fine but cannot wake the future
        epoch = loop.time()

        async def fire(request: PlannedRequest, slot: int) -> None:
            delay = epoch + slot / rate - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
            try:
                status, latency = await self._send(
                    reader, writer, request, keep_alive=False
                )
                statuses[status] = statuses.get(status, 0) + 1
                latencies.append(latency)
                by_route.setdefault(request.path, []).append(latency)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

        started = self.clock.now()
        await asyncio.gather(
            *(fire(request, slot) for slot, request in enumerate(requests))
        )
        duration = self.clock.now() - started
        return LoadReport(
            mode=f"open[{rate:g}/s]",
            total=len(requests),
            statuses=statuses,
            latencies=latencies,
            duration_seconds=duration,
            route_latencies=by_route,
        )

    def run_open(
        self, requests: Sequence[PlannedRequest], rate: float
    ) -> LoadReport:
        """Arrivals at ``rate`` per second whether or not responses come
        back — the pattern that drives an overloaded server into its
        shedding path instead of politely waiting."""
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        return asyncio.run(self._run_open(requests, rate))
