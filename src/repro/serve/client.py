"""ServeClient: a minimal asyncio client for the gateway protocol.

Speaks the length-prefixed JSON protocol over one TCP connection, with
request-id correlation so callers may pipeline concurrent requests on a
single socket (responses can arrive out of order). The tests drive the
gateway through it, and it is a reference implementation for anyone
wiring up a client in another language.

Server-reported errors come back as :class:`ServeError` carrying the
typed ``code`` from the wire; transport failures raise
:class:`~repro.serve.protocol.ConnectionClosed`.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional

from repro.errors import ReproError
from repro.serve.protocol import (
    ConnectionClosed,
    encode_frame,
    read_frame,
)


class ServeError(ReproError):
    """A typed error response from the gateway."""

    def __init__(self, code: str, message: str, error: Optional[dict] = None):
        super().__init__(message)
        self.code = code
        self.error = error if error is not None else {}


class ServeClient:
    """One connection to a :class:`~repro.serve.gateway.ServeGateway`."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self._read_task: Optional[asyncio.Task] = None

    async def connect(self) -> "ServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._read_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass
            self._read_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_waiters(ConnectionClosed("client closed"))

    async def __aenter__(self) -> "ServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                msg = await read_frame(self._reader)
                rid = msg.get("id")
                future = self._waiting.pop(rid, None)
                if future is not None and not future.done():
                    future.set_result(msg)
        except ConnectionClosed as exc:
            self._fail_waiters(exc)
        except asyncio.CancelledError:
            raise

    def _fail_waiters(self, exc: Exception) -> None:
        waiting, self._waiting = self._waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_exception(exc)

    async def request(self, message: dict) -> dict:
        """Send one request; await its correlated response (raw frame)."""
        if self._writer is None:
            raise ConnectionClosed("client is not connected")
        rid = next(self._ids)
        message = dict(message)
        message["id"] = rid
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()
        self._waiting[rid] = future
        try:
            self._writer.write(encode_frame(message))
            await self._writer.drain()
        except (ConnectionError, RuntimeError):
            self._waiting.pop(rid, None)
            raise ConnectionClosed("peer closed the connection") from None
        return await future

    async def call(self, message: dict) -> dict:
        """Request + unwrap: returns ``result``, raises :class:`ServeError`."""
        response = await self.request(message)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error", {})
        raise ServeError(
            str(error.get("code", "internal")),
            str(error.get("message", "request failed")),
            error,
        )

    # ------------------------------------------------------------------
    # Convenience ops
    # ------------------------------------------------------------------

    async def ping(self) -> dict:
        return await self.call({"op": "ping"})

    async def stats(self) -> dict:
        return await self.call({"op": "stats"})

    async def sql(
        self,
        statement: str,
        *,
        tenant: Optional[str] = None,
        priority: Optional[str] = None,
    ) -> dict:
        message: dict = {"op": "sql", "sql": statement}
        if tenant is not None:
            message["tenant"] = tenant
        if priority is not None:
            message["priority"] = priority
        return await self.call(message)

    async def query(self, spec: dict, **fields) -> dict:
        message = {"op": "query", **spec, **fields}
        return await self.call(message)

    async def load(self, table: str, rows: list) -> dict:
        return await self.call({"op": "load", "table": table, "rows": rows})

    async def invalidate(self, table: str) -> dict:
        return await self.call({"op": "invalidate", "table": table})
