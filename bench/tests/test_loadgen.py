"""The load drivers, against servers that misbehave on purpose."""

import asyncio
import statistics

from bench.loadgen import Connection, WireRequest, closed_slice, open_slice

SERVICE_S = 0.02


async def fake_server(statuses=None):
    """An HTTP server that takes ``SERVICE_S`` per request, one request
    at a time per connection, and answers with the next of
    ``statuses`` (200 when exhausted)."""
    pending = list(statuses or [])

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n")[1:]:
                    name, _, value = line.partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                if length:
                    await reader.readexactly(length)
                await asyncio.sleep(SERVICE_S)
                status = pending.pop(0) if pending else 200
                body = b'{"verdict": "VERIFIED"}'
                writer.write(
                    f"HTTP/1.1 {status} X\r\nContent-Length: "
                    f"{len(body)}\r\n\r\n".encode("latin-1") + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def requests(count):
    return [
        WireRequest.build(i, "POST", "/verify", b'{"kind": "claim"}')
        for i in range(count)
    ]


def run(scenario):
    return asyncio.run(scenario())


def test_latency_from_due_time_counts_the_wait_a_slow_server_imposes():
    async def scenario():
        server, port = await fake_server()
        connection = await Connection.open("127.0.0.1", port)
        try:
            # 200 requests/s offered to a server that completes 50/s
            return await open_slice([connection], requests(20), rate=200.0)
        finally:
            await connection.close()
            server.close()
            await server.wait_closed()

    done = run(scenario)
    assert len(done.samples) == 20
    from_due = [s.latency_from_due for s in done.samples]
    from_send = [s.latency_from_send for s in done.samples]
    # each request was *served* in ~20 ms, but the later ones waited
    # behind the earlier ones: only the due-time clock sees that
    assert statistics.median(from_send) < 2 * SERVICE_S
    assert statistics.median(from_due) > 4 * statistics.median(from_send)
    assert max(from_due) > 15 * SERVICE_S * 0.8
    assert done.backlog_end >= 10
    # the generator itself kept to its schedule
    assert max(s.lateness for s in done.samples) < SERVICE_S


def test_open_loop_keeps_up_with_a_server_that_keeps_up():
    async def scenario():
        server, port = await fake_server()
        connections = [
            await Connection.open("127.0.0.1", port) for _ in range(2)
        ]
        try:
            return await open_slice(connections, requests(10), rate=25.0)
        finally:
            for connection in connections:
                await connection.close()
            server.close()
            await server.wait_closed()

    done = run(scenario)
    assert done.backlog_end <= 1
    # the median: one stall of a shared host is not the server's doing
    assert statistics.median(
        s.latency_from_due for s in done.samples
    ) < 3 * SERVICE_S
    assert done.wall >= 9 / 25.0


def test_closed_loop_sends_each_request_once_and_keeps_every_status():
    async def scenario():
        server, port = await fake_server(statuses=[200, 429, 500])
        connections = [
            await Connection.open("127.0.0.1", port) for _ in range(2)
        ]
        try:
            return await closed_slice(connections, requests(7))
        finally:
            for connection in connections:
                await connection.close()
            server.close()
            await server.wait_closed()

    samples = run(scenario)
    assert sorted(s.request.index for s in samples) == list(range(7))
    assert sorted(s.status for s in samples) == [200] * 5 + [429, 500]
    for sample in samples:
        assert sample.due <= sample.sent <= sample.done
        assert sample.body == b'{"verdict": "VERIFIED"}'
