"""Closed- and open-loop load over a few persistent connections.

``repro.serve.loadgen.run_open`` stamps a request's start after
``open_connection`` and opens one connection per request without limit,
so a stalled server under-reports its latency and the generator's own
lateness is invisible.  The drivers here keep a fixed set of persistent
connections, and the open loop

* schedules request *i* of a slice at ``epoch + i / rate`` whatever the
  server does,
* queues due requests client-side until a connection is free,
* times each request **from its due time**, so the wait a stall imposes
  on the requests behind it is counted, and
* records how late the generator itself released each request and how
  many earlier requests were still unanswered when the last one fell
  due.

Every response is kept with its status; a non-200 (a shed ``429``
included) counts as a miss for whoever reads the samples.  The HTTP
client is the benchmark's own few lines, not the program's.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from bench.measure import now


@dataclass(frozen=True)
class WireRequest:
    """One request, serialised once, before any clock starts."""

    index: int
    path: str
    wire: bytes

    @classmethod
    def build(
        cls, index: int, method: str, path: str, body: bytes = b"",
        host: str = "127.0.0.1",
    ) -> "WireRequest":
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Connection: keep-alive\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return cls(index, path, head.encode("latin-1") + body)


@dataclass
class Sample:
    """One answered request.  ``due`` is when the schedule wanted it
    sent (for a closed loop: when its connection became free),
    ``released`` when the generator handed it over, ``sent`` when its
    bytes were written, ``done`` when the whole response was read."""

    request: WireRequest
    due: float
    released: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_from_due(self) -> float:
        return self.done - self.due

    @property
    def latency_from_send(self) -> float:
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        return self.released - self.due


class Connection:
    """One persistent HTTP/1.1 connection, one request at a time."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def exchange(self, wire: bytes) -> Tuple[int, bytes, float]:
        """Send one request; returns (status, body, time sent)."""
        self._writer.write(wire)
        await self._writer.drain()
        sent = now()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length) if length else b""
        return status, body, sent

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def closed_slice(
    connections: Sequence[Connection], requests: Sequence[WireRequest]
) -> List[Sample]:
    """Each connection sends its share of ``requests`` one after the
    other, the next only when the previous was answered."""
    samples: List[Sample] = []

    async def client(connection: Connection, share) -> None:
        for request in share:
            due = now()
            status, body, sent = await connection.exchange(request.wire)
            samples.append(
                Sample(request, due, due, sent, now(), status, body)
            )

    count = len(connections)
    await asyncio.gather(*(
        client(connection, requests[position::count])
        for position, connection in enumerate(connections)
    ))
    return samples


@dataclass
class OpenSlice:
    """What one open-loop slice saw."""

    samples: List[Sample]
    #: earlier requests still unanswered when the last one fell due
    backlog_end: int
    #: first due time to the last response
    wall: float


async def open_slice(
    connections: Sequence[Connection],
    requests: Sequence[WireRequest],
    rate: float,
) -> OpenSlice:
    """Release ``requests`` at ``rate`` per second, whatever the server
    does; returns when every one of them has been answered."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    samples: List[Sample] = []
    due_queue: "asyncio.Queue[Optional[Tuple[WireRequest, float, float]]]"
    due_queue = asyncio.Queue()
    epoch = now()
    backlog_end = 0

    async def generator() -> None:
        nonlocal backlog_end
        for position, request in enumerate(requests):
            due = epoch + position / rate
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            due_queue.put_nowait((request, due, now()))
        backlog_end = len(requests) - 1 - len(samples)
        for _ in connections:
            due_queue.put_nowait(None)

    async def sender(connection: Connection) -> None:
        while True:
            item = await due_queue.get()
            if item is None:
                return
            request, due, released = item
            status, body, sent = await connection.exchange(request.wire)
            samples.append(
                Sample(request, due, released, sent, now(), status, body)
            )

    await asyncio.gather(
        generator(), *(sender(connection) for connection in connections)
    )
    return OpenSlice(samples, backlog_end, now() - epoch)
