"""Length-prefixed JSON wire protocol for the serving gateway.

Frames are ``4-byte big-endian unsigned length`` + ``UTF-8 JSON body``.
Both directions use the same framing; requests and responses are JSON
objects. The framing is deliberately dumb: a client that can count
bytes and call ``json.loads`` can speak it from any language.

Requests carry an ``op`` plus op-specific fields and an optional
client-chosen ``id`` echoed back verbatim (responses may arrive out of
order when a connection pipelines requests)::

    {"id": 7, "op": "sql",  "sql": "SELECT sum(clicks) FROM events",
     "tenant": "tenant00", "priority": "interactive"}
    {"op": "load", "table": "events", "rows": [{"day": 1, "clicks": 2.0}]}
    {"op": "invalidate", "table": "events"}
    {"op": "ping"} / {"op": "stats"}

Responses are ``{"id": ..., "ok": true, "result": {...}}`` or
``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``.
Degraded (graceful-degradation) answers come back ``ok`` with
``result.degraded = true`` and an explicit ``result.completeness``
fraction — the wire protocol never silently drops rows.

Error taxonomy (``error.code``):

* ``malformed`` — undecodable JSON or a non-object frame;
* ``oversized`` — declared frame length above the server's limit;
* ``unknown_op`` / ``bad_request`` — a well-formed frame the server
  cannot dispatch;
* ``sql`` — lex/parse/plan failure (carries caret ``context``);
* ``table_not_found`` — unknown table;
* ``rejected`` — admission control said no (``reason`` holds the
  admission outcome: ``shed`` / ``quota`` / ``tenant_quota`` /
  ``queue_full`` / ``deadline``);
* ``query_failed`` — execution failed after retries;
* ``shutting_down`` — the gateway is draining;
* ``internal`` — anything else (the connection survives).

Every protocol error is a *typed response*, never a dead socket —
except an oversized or truncated frame, after which the byte stream
cannot be trusted and the connection is closed (the error response is
still sent first when possible).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Optional

from repro.errors import ReproError

#: Frame header: 4-byte big-endian unsigned payload length.
HEADER = struct.Struct(">I")

#: Default upper bound on one frame's payload, bytes.
MAX_FRAME_BYTES = 1 << 20


class ProtocolError(ReproError):
    """Base class for wire-protocol violations."""

    code = "malformed"
    #: Whether the byte stream is still trustworthy after this error.
    recoverable = True


class MalformedFrameError(ProtocolError):
    """The frame body was not a JSON object."""


class FrameTooLargeError(ProtocolError):
    """The declared frame length exceeds the server's limit."""

    code = "oversized"
    recoverable = False


class ConnectionClosed(ReproError):
    """The peer closed the connection (clean or mid-frame)."""


#: The one JSON encoding of the wire: compact, keys sorted.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_body(obj: object) -> bytes:
    """Serialise one JSON-able object into a frame body (no header)."""
    return _ENCODER.encode(obj).encode()


def encode_frame(obj: object) -> bytes:
    """Serialise one JSON-able object into a length-prefixed frame."""
    payload = encode_body(obj)
    return HEADER.pack(len(payload)) + payload


def result_frame(request_id: object, result_body: bytes) -> bytes:
    """The frame of ``ok_response(request_id, result)`` given the
    already-encoded ``result``.

    Byte-identical to ``encode_frame(ok_response(request_id, result))``
    when ``result_body == encode_body(result)``: sorted keys put ``id``,
    ``ok``, ``result`` in exactly this order. A result encoded once can
    thus answer any number of requests, whatever their ids.
    """
    # Plain integers, the usual id, need no encoder to print them.
    rid = b"%d" % request_id if type(request_id) is int else encode_body(request_id)
    payload = b'{"id":%b,"ok":true,"result":%b}' % (rid, result_body)
    return HEADER.pack(len(payload)) + payload


async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict:
    """Read one frame; returns the decoded JSON object.

    Raises :class:`ConnectionClosed` on EOF (clean between frames or
    abrupt mid-frame), :class:`FrameTooLargeError` when the declared
    length exceeds ``max_bytes`` (unrecoverable: the payload is not
    consumed), and :class:`MalformedFrameError` when the payload is not
    a JSON object (recoverable: framing is intact, the connection can
    continue).
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        raise ConnectionClosed("peer closed the connection") from None
    (length,) = HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLargeError(
            f"frame of {length} bytes exceeds limit of {max_bytes}"
        )
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        raise ConnectionClosed("peer closed mid-frame") from None
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        raise MalformedFrameError(f"undecodable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedFrameError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def ok_response(request_id: object, result: dict) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: object,
    code: str,
    message: str,
    **extra: object,
) -> dict:
    error: dict = {"code": code, "message": message}
    error.update(extra)
    return {"id": request_id, "ok": False, "error": error}


def ok_frame(request_id: object, result: dict) -> bytes:
    return encode_frame(ok_response(request_id, result))


def error_frame(request_id: object, code: str, message: str, **extra: object) -> bytes:
    return encode_frame(error_response(request_id, code, message, **extra))


def jsonable(value: object) -> object:
    """Coerce result payloads (numpy scalars, tuples) into plain JSON.

    Query results carry ``np.float64``/``np.int64`` scalars and tuple
    rows; ``json.dumps`` refuses both. This keeps the coercion in one
    place so every response path agrees.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # numpy scalars expose item(); anything else falls back to str.
    item = getattr(value, "item", None)
    if callable(item):
        return jsonable(item())
    return str(value)


async def write_frame(
    writer: asyncio.StreamWriter,
    frame: bytes,
    *,
    timeout: Optional[float] = None,
) -> None:
    """Write one encoded frame; wait only for a peer that is behind.

    The transport takes the bytes at once. Only when its write buffer
    stands above the high-water mark — the peer reads slower than it is
    answered — is ``drain`` awaited, for at most ``timeout`` seconds.

    Raises :class:`ConnectionClosed` when the peer is gone or cannot
    keep up (``asyncio.TimeoutError`` on drain) — the caller decides
    whether to drop the connection.
    """
    transport = writer.transport
    if transport.is_closing():
        raise ConnectionClosed("peer closed the connection")
    try:
        writer.write(frame)
        if transport.get_write_buffer_size() > transport.get_write_buffer_limits()[1]:
            await asyncio.wait_for(writer.drain(), timeout=timeout)
    except asyncio.TimeoutError:
        raise ConnectionClosed("slow client: write timed out") from None
    except (ConnectionError, RuntimeError):
        raise ConnectionClosed("peer closed the connection") from None
