"""The serve-protocol client: one pipelining connection.

:class:`AsyncServeClient` multiplexes one connection: a background reader
task pairs response lines back to in-flight requests by the ``id`` echo,
so a load generator can keep many ingests outstanding — which is exactly
how the throughput benchmark pressures admission control — and the
``repro client`` CLI runs it under :func:`asyncio.run`, one request at a
time.

It speaks the versioned protocol from :mod:`repro.serve.protocol` and
re-raises server refusals as typed exceptions —
:class:`~repro.exceptions.OverloadedError` (with the server's
``retry_after``) for load sheds, :class:`~repro.exceptions.ServeError`
for everything else — so callers branch on types, not string codes.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..exceptions import OverloadedError, ProtocolError, ServeError
from .protocol import MAX_LINE_BYTES, PROTOCOL_VERSION, decode_response, encode


class AsyncServeClient:
    """One multiplexed connection to a resolution server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 0
        self._inflight: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._write_lock = asyncio.Lock()
        self._failure: str | None = None  # why the connection ended

    async def connect(self) -> "AsyncServeClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._failure = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._failure = self._failure or "connection closed"
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(ServeError(self._failure))
        self._inflight.clear()

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        """Pair response lines with requests until the connection ends.

        However it ends (the server closes it, resets it, or sends a line
        past ``MAX_LINE_BYTES``, after which no later line can be framed),
        every request in flight fails with a :class:`ServeError` naming
        the cause, and so does every later request on this client.
        """
        assert self._reader is not None
        while True:
            try:
                line = await self._reader.readline()
            except ValueError:  # readline's overrun: a line past MAX_LINE_BYTES
                cause = f"response line exceeds the {MAX_LINE_BYTES >> 20} MiB limit"
                break
            except OSError as error:  # a reset connection, among others
                cause = f"connection lost: {error!r}"
                break
            if not line:
                cause = "server closed the connection"
                break
            try:
                response = decode_response(line)
            except ProtocolError:
                continue
            future = self._inflight.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result(response)
        self._failure = cause
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(ServeError(cause))
        self._inflight.clear()

    async def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request and await its raw response (no raising).

        Raises:
            ServeError: when the client is not connected, or its
                connection has ended (the message names the cause).
        """
        if self._writer is None:
            raise ServeError("client is not connected")
        if self._failure is not None:
            raise ServeError(self._failure)
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[request_id] = future
        message = {"v": PROTOCOL_VERSION, "id": request_id, "op": op, **fields}
        async with self._write_lock:
            self._writer.write(encode(message))
            await self._writer.drain()
        return await future

    async def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request; raise typed errors on refusal."""
        response = await self.request(op, **fields)
        if response.get("ok"):
            return response
        code = response.get("error", "error")
        message = response.get("message", "server error")
        if code == "overloaded":
            raise OverloadedError(
                message, retry_after=float(response.get("retry_after", 0.05))
            )
        raise ServeError(f"{code}: {message}")

    # Convenience verbs ------------------------------------------------- #

    async def create_session(
        self, session: str, attributes: list[str], **fields: Any
    ) -> dict[str, Any]:
        return await self.call(
            "create_session",
            session=session,
            attributes=list(attributes),
            **fields,
        )

    async def ingest(
        self,
        session: str,
        rows: list[list[str]],
        entity_ids: list[int] | None = None,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {"session": session, "rows": rows}
        if entity_ids is not None:
            fields["entity_ids"] = list(entity_ids)
        return await self.call("ingest", **fields)

    async def ingest_with_retry(
        self,
        session: str,
        rows: list[list[str]],
        entity_ids: list[int] | None = None,
        max_attempts: int = 50,
    ) -> dict[str, Any]:
        """Ingest, honoring ``retry_after`` backpressure until admitted."""
        for _ in range(max_attempts):
            try:
                return await self.ingest(session, rows, entity_ids)
            except OverloadedError as error:
                await asyncio.sleep(max(0.01, error.retry_after))
        raise OverloadedError(
            f"still shed after {max_attempts} attempts", retry_after=1.0
        )

    async def query_clusters(self, session: str) -> dict[str, Any]:
        return await self.call("query_clusters", session=session)

    async def checkpoint(self, session: str) -> dict[str, Any]:
        return await self.call("checkpoint", session=session)

    async def close_session(self, session: str) -> dict[str, Any]:
        return await self.call("close", session=session)

    async def healthz(self) -> dict[str, Any]:
        return await self.call("healthz")

    async def metrics(self) -> str:
        return (await self.call("metrics"))["metrics"]


__all__ = ["AsyncServeClient"]
