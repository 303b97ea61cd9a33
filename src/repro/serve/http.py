"""Minimal HTTP/1.1 framing over :mod:`asyncio` streams.

The gateway speaks just enough HTTP to serve frame jobs from stock
clients (``curl``, ``urllib``) with zero dependencies: request-line +
headers + ``Content-Length`` body in, status line + headers + body out,
keep-alive by default.  Chunked transfer encoding is deliberately not
implemented — a frame job's size is known up front, and rejecting the
rest keeps the parser small enough to reason about byte by byte.

Both directions live here because the load generator
(:mod:`repro.serve.loadgen`) is a client of the same wire format: it
renders requests with :func:`render_request` and parses responses with
:func:`read_response`, so a framing bug cannot hide by being symmetric.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from ..errors import ReproError

#: Hard cap on the request line plus all headers, in bytes.
MAX_HEAD_BYTES = 32 * 1024
#: Hard cap on the header count (anti-amplification).
MAX_HEADERS = 100

#: Reason phrases for every status the gateway emits.
REASONS: dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    507: "Insufficient Storage",
}


class HttpError(ReproError):
    """A request the peer sent cannot be served; carries the status.

    Raised by the parser (malformed framing, oversized payloads) and by
    handlers (bad routes, bad parameters); the connection loop renders
    it as an error response instead of tearing the connection down.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """One parsed request: line, lowered headers, raw body."""

    method: str
    #: Raw request target as sent (path plus optional query string).
    target: str
    #: The target's path component (query string stripped).
    path: str
    #: Lower-cased header name -> value (last one wins on duplicates).
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> dict[str, object]:
        """The body decoded as a JSON object (400 on anything else)."""
        try:
            payload = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload


@dataclass(frozen=True, slots=True)
class HttpResponse:
    """One parsed response (the load generator's half of the wire)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


async def _read_head_lines(reader: asyncio.StreamReader) -> list[str] | None:
    """Read request/response line plus headers; ``None`` on clean EOF."""
    raw = b""
    while b"\r\n\r\n" not in raw and b"\n\n" not in raw:
        chunk = await reader.readline()
        if not chunk:
            if raw:
                raise HttpError(400, "connection closed mid-head")
            return None
        raw += chunk
        if len(raw) > MAX_HEAD_BYTES:
            raise HttpError(413, f"head exceeds {MAX_HEAD_BYTES} bytes")
        if raw in (b"\r\n", b"\n"):
            raw = b""  # tolerate leading blank lines between requests
            continue
        if chunk in (b"\r\n", b"\n"):
            break
    lines = raw.decode("latin-1").split("\r\n" if b"\r\n" in raw else "\n")
    return [line for line in lines if line]


def _parse_headers(lines: list[str]) -> dict[str, str]:
    """Lower-cased header mapping from raw ``Name: value`` lines."""
    if len(lines) > MAX_HEADERS:
        raise HttpError(413, f"more than {MAX_HEADERS} headers")
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


async def _read_body(
    reader: asyncio.StreamReader,
    headers: dict[str, str],
    max_body_bytes: int,
) -> bytes:
    """Read a ``Content-Length`` body, enforcing the size cap."""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length {raw_length!r}") from exc
    if length < 0:
        raise HttpError(400, f"bad Content-Length {raw_length!r}")
    if length > max_body_bytes:
        raise HttpError(413, f"body of {length} bytes exceeds {max_body_bytes}")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise HttpError(400, "connection closed mid-body") from exc


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean connection end.

    Framing violations raise :class:`HttpError` with the status the
    connection loop should answer with before (usually) closing.
    """
    lines = await _read_head_lines(reader)
    if lines is None:
        return None
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers, max_body_bytes)
    path, _, _query = target.partition("?")
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=path or "/",
        headers=headers,
        body=body,
    )


async def read_response(reader: asyncio.StreamReader) -> HttpResponse | None:
    """Parse one response off the stream (client side; load generator)."""
    lines = await _read_head_lines(reader)
    if lines is None:
        return None
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise HttpError(400, f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise HttpError(400, f"malformed status line {lines[0]!r}") from exc
    headers = _parse_headers(lines[1:])
    body = await _read_body(reader, headers, max_body_bytes=1 << 30)
    return HttpResponse(status=status, headers=headers, body=body)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response, ``Content-Length`` framed."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def render_request(
    method: str,
    target: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    content_type: str = "application/json",
) -> bytes:
    """Serialise one keep-alive request (client side; load generator)."""
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: dict[str, object],
    *,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Render ``payload`` as a JSON response body."""
    body = json.dumps(payload).encode()
    return render_response(status, body, extra_headers=extra_headers)
