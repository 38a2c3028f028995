"""The service's HTTP/1.1 layer, its knobs and its server thread.

``read_request`` is driven straight off an ``asyncio.StreamReader``
fed with raw bytes, so every malformed input the parser guards against
is checked without a socket, and a serialized :class:`Response` is read
back by stdlib ``http.client``; the knob checks of :class:`ServeConfig`
and the lifecycle guards of :class:`ServerThread` follow.
"""

import asyncio
import http.client
import io

import pytest

from repro.core.pipeline import VerifAI
from repro.serve import ServeConfig, ServerThread, VerificationService
from repro.serve.http import (
    MAX_HEADER_COUNT,
    MAX_HEADER_LINE,
    REASONS,
    ConnectionClosed,
    HttpError,
    Request,
    Response,
    read_request,
)
from repro.workloads.builder import LakeConfig, build_lake


def _reader(data: bytes, limit: int = 2 ** 16) -> asyncio.StreamReader:
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse(data: bytes, max_body_bytes: int = 1024, limit: int = 2 ** 16):
    async def go():
        return await read_request(_reader(data, limit), max_body_bytes)

    return asyncio.run(go())


class _Sent:
    """The one socket method ``http.client.HTTPConnection`` calls on
    an open connection: every byte it sends lands in ``data``."""

    def __init__(self) -> None:
        self.data = b""

    def sendall(self, data: bytes) -> None:
        self.data += data


class _Wire:
    """The one socket method ``http.client.HTTPResponse`` calls."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def makefile(self, mode):
        return io.BytesIO(self._data)


def parse_response(data: bytes):
    """(status, lower-cased headers, body) as ``http.client`` reads
    ``data``."""
    response = http.client.HTTPResponse(_Wire(data))
    response.begin()
    headers = {name.lower(): value for name, value in response.getheaders()}
    return response.status, headers, response.read()


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
class TestReadRequest:
    def test_a_request_parses_into_its_parts(self):
        request = parse(
            b"post /a%20b?n=5&flag= HTTP/1.1\r\n"
            b"Host: x\r\nX-Thing:  padded  \r\nContent-Length: 4\r\n\r\n"
            b"body"
        )
        assert request.method == "POST"
        assert request.path == "/a b"
        assert request.query == {"n": "5", "flag": ""}
        assert request.version == "HTTP/1.1"
        assert request.headers["x-thing"] == "padded"
        assert request.body == b"body"

    def test_request_bytes_round_trip(self):
        """What ``http.client`` writes, the server reads whole."""
        connection = http.client.HTTPConnection("localhost")
        connection.sock = sent = _Sent()
        connection.request(
            "POST", "/verify", body=b'{"k": 1}',
            headers={"Content-Type": "application/json"},
        )
        request = parse(sent.data)
        assert request.method == "POST" and request.path == "/verify"
        assert request.body == b'{"k": 1}'
        assert request.headers["content-type"] == "application/json"
        assert request.headers["content-length"] == "8"
        assert request.keep_alive

    def test_an_empty_target_path_is_root(self):
        assert parse(b"GET ?x=1 HTTP/1.1\r\n\r\n").path == "/"

    def test_bare_newlines_frame_a_request_too(self):
        request = parse(b"GET /healthz HTTP/1.0\nHost: x\n\n")
        assert (request.path, request.version) == ("/healthz", "HTTP/1.0")
        assert request.body == b""

    @pytest.mark.parametrize("data", [b"", b"\r\n"], ids=["eof", "blank"])
    def test_nothing_before_the_request_line_is_a_closed_connection(
        self, data
    ):
        with pytest.raises(ConnectionClosed):
            parse(data)

    @pytest.mark.parametrize("data,message", [
        (b"GET / HTTP/1.1", "truncated request"),
        (b"GET /\r\n\r\n", "malformed request line"),
        (b"GET / HTTP/2.0\r\n\r\n", "unsupported HTTP version"),
        (b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", "malformed header"),
        # RFC 9112 sections 5.1 and 5.2: no blank before the colon, no
        # folded continuation line
        (b"POST / HTTP/1.1\r\nContent-Length : 3\r\n\r\nabc",
         "malformed header"),
        (b"POST / HTTP/1.1\r\nX-A: 1\r\n Content-Length: 3\r\n\r\nabc",
         "malformed header"),
        (b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         "malformed Content-Length"),
        (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
         "malformed Content-Length"),
        # RFC 9112 section 6: 1*DIGIT, though int() takes all three
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
         "malformed Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
         "malformed Content-Length"),
        (b"GET / HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
         "malformed Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
         b"Content-Length: 5\r\n\r\nabcde",
         "conflicting Content-Length headers"),
        (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
         "truncated request body"),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * MAX_HEADER_LINE + b"\r\n\r\n",
         "header line too long"),
        (b"GET / HTTP/1.1\r\n"
         + b"".join(b"H%d: v\r\n" % i for i in range(MAX_HEADER_COUNT + 1))
         + b"\r\n",
         "too many headers"),
    ], ids=[
        "no-line-end", "two-part-line", "http2", "header-colon",
        "blank-before-colon", "folded-line",
        "length-text", "length-negative", "length-underscore",
        "length-plus", "length-minus-zero", "length-twice-differing",
        "short-body", "long-header", "header-count",
    ])
    def test_a_malformed_request_is_a_400(self, data, message):
        with pytest.raises(HttpError) as caught:
            parse(data)
        assert caught.value.status == 400
        assert message in caught.value.message

    def test_a_repeated_equal_content_length_frames_the_body(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
            b"content-length: 3\r\n\r\nabc"
        )
        assert request.body == b"abc"

    @pytest.mark.parametrize("data", [
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"3\r\nabc\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
    ], ids=["chunked", "chunked-beside-length", "gzip"])
    def test_any_transfer_encoding_is_a_501(self, data):
        with pytest.raises(HttpError) as caught:
            parse(data)
        assert caught.value.status == 501
        assert "Transfer-Encoding" in caught.value.message

    def test_a_line_over_the_stream_limit_is_a_400(self):
        with pytest.raises(HttpError) as caught:
            parse(b"GET /" + b"a" * 200 + b" HTTP/1.1\r\n\r\n", limit=64)
        assert (caught.value.status, caught.value.message) == (
            400, "header line too long"
        )

    def test_a_body_over_the_limit_is_a_413(self):
        with pytest.raises(HttpError) as caught:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n" + b"x" * 11,
                max_body_bytes=10,
            )
        assert caught.value.status == 413

    def test_a_body_at_the_limit_is_read(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n" + b"x" * 10,
            max_body_bytes=10,
        )
        assert request.body == b"x" * 10


class TestKeepAlive:
    @pytest.mark.parametrize("version,connection,expected", [
        ("HTTP/1.1", None, True),
        ("HTTP/1.1", "close", False),
        ("HTTP/1.1", "Close", False),
        ("HTTP/1.0", None, False),
        ("HTTP/1.0", "Keep-Alive", True),
    ])
    def test_the_version_sets_the_default(self, version, connection,
                                          expected):
        headers = {} if connection is None else {"connection": connection}
        request = Request("GET", "/", {}, version, headers)
        assert request.keep_alive is expected


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
class TestResponses:
    def test_to_bytes_round_trips_through_read_response(self):
        """``http.client`` reads what the server writes."""
        response = Response(429, b'{"e": 1}', headers={"Retry-After": "1"})
        status, headers, body = parse_response(response.to_bytes(False))
        assert status == 429
        assert body == b'{"e": 1}'
        assert headers["retry-after"] == "1"
        assert headers["content-type"] == "application/json"
        assert headers["content-length"] == "8"
        assert headers["connection"] == "close"

    @pytest.mark.parametrize("status", sorted(REASONS))
    def test_every_status_the_service_emits_reads_back(self, status):
        body = b'{"status": %d}' % status
        wire = Response(status, body).to_bytes(True)
        response = http.client.HTTPResponse(_Wire(wire))
        response.begin()
        assert (response.status, response.reason) == (
            status, REASONS[status]
        )
        assert response.getheader("Connection") == "keep-alive"
        assert response.read() == body

    def test_status_line_names_the_reason(self):
        head = Response(413).to_bytes(True).split(b"\r\n", 1)[0]
        assert head == b"HTTP/1.1 413 Payload Too Large"
        assert Response(299).to_bytes(True).startswith(b"HTTP/1.1 299 Unknown")


# ----------------------------------------------------------------------
# knobs
# ----------------------------------------------------------------------
class TestServeConfig:
    @pytest.mark.parametrize("field,value", [
        ("retry_after_seconds", -1.0),
        ("max_queue", -1),
        ("retry_after_seconds", 0.0),
        ("max_body_bytes", 0),
        ("max_batch_objects", 0),
        ("trace_cache_size", 0),
        ("event_log_size", 0),
        ("debug_profile_max_seconds", 0.0),
    ])
    def test_an_out_of_range_knob_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("max_queue", 0),
        ("max_batch_objects", 1),
        ("max_body_bytes", 1),
        ("trace_cache_size", 1),
    ])
    def test_the_least_allowed_value_is_kept(self, field, value):
        assert getattr(ServeConfig(**{field: value}), field) == value


# ----------------------------------------------------------------------
# server thread lifecycle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    bundle = build_lake(LakeConfig(num_tables=4, seed=5))
    return VerificationService(VerifAI(bundle.lake), ServeConfig(port=0))


class TestServerThread:
    def test_the_address_before_start_is_refused(self, service):
        with pytest.raises(RuntimeError, match="service is not started"):
            ServerThread(service).address

    def test_stop_before_start_is_a_no_op(self, service):
        server = ServerThread(service)
        server.stop()
        server.join(0.01)

    def test_a_second_start_is_refused(self, service):
        with ServerThread(service) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
