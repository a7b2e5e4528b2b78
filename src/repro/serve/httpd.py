"""Minimal asyncio HTTP/1.1 + WebSocket plumbing (stdlib only).

The serving layer deliberately avoids web frameworks: the container this
repository targets has the Python standard library and numpy, nothing
else.  What the job service actually needs from HTTP is small — parse a
request line + headers + sized body, write a response, and upgrade a
connection to a WebSocket (RFC 6455) for progress streaming — so that is
all this module implements.  Connections are ``close``-per-request except
for upgraded sockets, which keeps the state machine trivial and is plenty
for a measurement service whose requests are seconds long.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from urllib.parse import parse_qs, urlsplit

#: Hard limits: a characterization request is small; anything bigger is abuse.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: RFC 6455 handshake GUID.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class BadRequest(ValueError):
    """Unparseable or oversized HTTP input."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]  # lower-cased names
    body: bytes = b""

    def json(self):
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc

    @property
    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "sec-websocket-key" in self.headers
        )


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a cleanly closed socket."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise BadRequest("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequest("request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise BadRequest("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise BadRequest(f"malformed request line {lines[0]!r}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    parts = urlsplit(target)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError as exc:
            raise BadRequest("bad Content-Length") from exc
        if size > MAX_BODY_BYTES:
            raise BadRequest("request body too large")
        body = await reader.readexactly(size)
    return Request(
        method=method.upper(),
        path=parts.path,
        query=parse_qs(parts.query),
        headers=headers,
        body=body,
    )


def response(
    status: int,
    body: bytes | str = b"",
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one ``Connection: close`` HTTP response."""
    if isinstance(body, str):
        body = body.encode()
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, doc, headers: dict[str, str] | None = None) -> bytes:
    return response(
        status, json.dumps(doc, sort_keys=True) + "\n", headers=headers
    )


# -- WebSocket (RFC 6455) --------------------------------------------------
def ws_accept_value(key: str) -> str:
    digest = hashlib.sha1((key + WS_GUID).encode("latin-1")).digest()
    return base64.b64encode(digest).decode("latin-1")


def ws_handshake_response(request: Request) -> bytes:
    accept = ws_accept_value(request.headers["sec-websocket-key"])
    return (
        "HTTP/1.1 101 Switching Protocols\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
    ).encode("latin-1")


def ws_encode(payload: bytes | str, opcode: int = 0x1, mask: bool = False) -> bytes:
    """One finished WebSocket frame (servers send unmasked, clients masked)."""
    if isinstance(payload, str):
        payload = payload.encode()
    head = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask else 0
    if len(payload) < 126:
        head.append(mask_bit | len(payload))
    elif len(payload) < 1 << 16:
        head.append(mask_bit | 126)
        head += struct.pack(">H", len(payload))
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", len(payload))
    if mask:
        key = os.urandom(4)
        head += key
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(head) + payload


#: WebSocket opcodes the service uses.
WS_TEXT = 0x1
WS_CLOSE = 0x8
WS_PING = 0x9
WS_PONG = 0xA
