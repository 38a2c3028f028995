"""A minimal HTTP/1.1 layer over ``asyncio`` streams.

Just enough protocol for the verification service — request-line +
headers + ``Content-Length`` bodies, keep-alive by default, explicit
limits on every input — with **no new dependencies**.  Continuations
and trailers are deliberately out of scope, and so is any
``Transfer-Encoding``: a request that names one is answered ``501``
and its connection closed, never read past its head.  A malformed or
oversized request maps to a :class:`HttpError` the server answers with
the right 4xx and a close.
"""

from __future__ import annotations

import asyncio
import re
from dataclasses import dataclass, field
from typing import Dict
from urllib.parse import parse_qsl, unquote, urlsplit

#: input limits (bytes / counts) the parser enforces
MAX_REQUEST_LINE = 8192
MAX_HEADER_LINE = 8192
MAX_HEADER_COUNT = 100

#: a ``Content-Length`` value (RFC 9112 section 6: ``1*DIGIT``; no sign,
#: blank or underscore, all of which ``int()`` would take)
_CONTENT_LENGTH = re.compile(r"[0-9]+")
#: a field name (RFC 9110 section 5.1: a token); a blank before the colon
#: or a folded continuation line would make a name two readers disagree on
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: the status lines the service emits
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level fault the server answers with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class ConnectionClosed(Exception):
    """The peer closed the connection between requests (not an error)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    version: str
    headers: Dict[str, str]  # keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass
class Response:
    """One response the server will serialize."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def to_bytes(self, keep_alive: bool) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Type", self.content_type)
        headers["Content-Length"] = str(len(self.body))
        headers["Connection"] = "keep-alive" if keep_alive else "close"
        for name in sorted(headers):
            lines.append(f"{name}: {headers[name]}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed() from exc
        raise HttpError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "header line too long") from exc
    if len(line) > limit:
        raise HttpError(400, "header line too long")
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Request:
    """Parse one request off the stream.

    Raises :class:`ConnectionClosed` on a clean EOF before the request
    line (keep-alive peer went away) and :class:`HttpError` on anything
    malformed or over the limits.
    """
    raw_line = await _read_line(reader, MAX_REQUEST_LINE)
    if not raw_line:
        raise ConnectionClosed()
    try:
        request_line = raw_line.decode("latin-1")
        method, target, version = request_line.split(" ", 2)
    except ValueError as exc:
        raise HttpError(400, "malformed request line") from exc
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, MAX_HEADER_LINE)
        if not line:
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        try:
            name, value = line.decode("latin-1").split(":", 1)
        except ValueError as exc:
            raise HttpError(400, "malformed header") from exc
        if not _FIELD_NAME.fullmatch(name):
            raise HttpError(400, "malformed header")
        name, value = name.lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    # a body framed any other way than by its length would be left on
    # the stream and read as the next request
    if "transfer-encoding" in headers:
        raise HttpError(501, "Transfer-Encoding is not supported")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        if not _CONTENT_LENGTH.fullmatch(length_header):
            raise HttpError(400, "malformed Content-Length")
        length = int(length_header)
        if length > max_body_bytes:
            raise HttpError(
                413, f"request body over {max_body_bytes} bytes"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpError(400, "truncated request body") from exc

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        version=version,
        headers=headers,
        body=body,
    )

