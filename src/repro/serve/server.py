"""The asyncio resolution server: protocol edge, dispatch, drain.

Two layers, separable on purpose:

* :class:`ServeApp` — the transport-free core.  ``dispatch`` takes one
  decoded request dict and returns one response dict, routing session ops
  through the :class:`~repro.serve.sessions.SessionRegistry` and serving
  ``healthz``/``metrics`` from its own :class:`~repro.obs.Observability`
  handle (``repro_serve_*`` families via ``to_prometheus``).  Tests and
  the verification battery drive this layer directly — and through real
  sockets — interchangeably, because it is the only place decisions are
  made.
* :class:`ResolutionServer` — the TCP front end.  One JSON line in, one
  out; each request line is handled in its own task with responses
  serialized by a per-connection write lock, so a connection can pipeline
  many in-flight requests (the ``id`` echo pairs them back up).  The same
  listener answers plain HTTP ``GET /healthz`` and ``GET /metrics`` so a
  scraper needs no protocol client.

Graceful drain (SIGTERM/SIGINT): flip the registry's draining flag —
session ops now shed with an explicit ``retry_after`` — let every
operation already admitted finish, checkpoint each session to the
snapshot store, and only then stop.  Queued batches are paid-for crowd
answers; the drain contract is that none of them is ever lost to a
shutdown.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
from pathlib import Path
from typing import Any

from ..exceptions import OverloadedError, PowerError, ProtocolError
from ..obs import instrument as obs_instrument
from ..obs.export import to_prometheus
from ..obs.instrument import Observability
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_request,
    encode,
    error_response,
    ok_response,
)
from .sessions import SessionRegistry, SessionSpec

_log = logging.getLogger(__name__)

#: Seconds an oversized line's connection keeps reading before it closes.
_LINGER_SECONDS = 10.0


class ServeApp:
    """The transport-free server core: one request dict in, one out.

    Args:
        checkpoint_root: per-session snapshot directory root.
        max_sessions: LRU cap on resident resolvers.
        queue_depth: per-session ingest queue bound.
        crowd_latency: simulated crowd round-trip seconds per ingest.
        obs: observability handle; defaults to a metrics-only private
            handle so hosting the app never globally installs anything
            (the CLI activates a process-wide handle separately).
    """

    def __init__(
        self,
        checkpoint_root: str | Path,
        max_sessions: int = 8,
        queue_depth: int = 4,
        crowd_latency: float = 0.0,
        obs: Observability | None = None,
    ) -> None:
        self.obs = obs or Observability(tracing=False, metrics=True)
        self.registry = SessionRegistry(
            checkpoint_root,
            max_resident=max_sessions,
            queue_depth=queue_depth,
            crowd_latency=crowd_latency,
            obs=self.obs,
        )
        self._started = self.obs.tracer.clock.wall()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    async def handle_line(self, line: bytes | str) -> dict[str, Any]:
        """Decode one wire line and dispatch it; never raises."""
        try:
            request = decode_request(line)
        except ProtocolError as error:
            # Undecodable requests still count: op is unknown by definition.
            obs_instrument.record_serve_request(
                self.obs, "invalid", 0.0, "error"
            )
            request_id = None
            try:
                parsed = json.loads(
                    line.decode("utf-8", "replace")
                    if isinstance(line, bytes)
                    else line
                )
                if isinstance(parsed, dict):
                    request_id = parsed.get("id")
            except (ValueError, TypeError, RecursionError):
                pass
            return error_response(request_id, error.code, str(error))
        return await self.dispatch(request)

    async def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Route one validated request; always returns a response dict.

        Two reads of the tracer's clock feed ``repro_serve_request_seconds``
        and a finished ``serve.request`` root span (``op``, ``status``):
        requests interleave on the event loop's thread, so no span may be
        held open on its stack across an ``await``.
        """
        op = request["op"]
        request_id = request.get("id")
        tracer = self.obs.tracer
        started = tracer.clock.wall()
        status = "ok"
        try:
            result = await self._handle(op, request)
            response = ok_response(request_id, **result)
        except OverloadedError as error:
            status = "shed"
            response = error_response(
                request_id,
                "overloaded",
                str(error),
                retry_after=error.retry_after,
            )
        except ProtocolError as error:
            status = "error"
            response = error_response(request_id, error.code, str(error))
        except PowerError as error:
            status = "error"
            response = error_response(request_id, "error", str(error))
        except Exception as error:  # noqa: BLE001 - answered, never raised
            # A bug behind one request must not cost the client its
            # answer or take down the connection's other requests.
            _log.exception("%s request failed", op)
            status = "error"
            response = error_response(
                request_id, "internal", f"{type(error).__name__}: {error}"
            )
        ended = tracer.clock.wall()
        obs_instrument.record_serve_request(self.obs, op, ended - started, status)
        tracer.record("serve.request", started, ended, op=op, status=status)
        return response

    async def _handle(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        if op == "healthz":
            return self.healthz()
        if op == "metrics":
            return {"metrics": self.metrics_text()}
        session = request["session"]
        if op == "create_session":
            return await self.registry.create(
                session, SessionSpec.from_request(request)
            )
        if op == "ingest":
            return await self.registry.submit(
                session,
                "ingest",
                {
                    "rows": request["rows"],
                    "entity_ids": request.get("entity_ids"),
                },
            )
        if op == "query_clusters":
            return await self.registry.submit(session, "query_clusters", {})
        if op == "checkpoint":
            return await self.registry.submit(session, "checkpoint", {})
        if op == "close":
            return await self.registry.close(session)
        raise ProtocolError("unknown_op", f"unknown op {op!r}")

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self.registry.draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "resident": self.registry.resident,
            "known_sessions": len(self.registry.known_sessions()),
            "uptime_seconds": round(self.obs.tracer.clock.wall() - self._started, 3),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition, session gauges set as of this call.

        The gauges are set here, where they are read, not on every
        create, close and eviction: counting the known sessions lists the
        checkpoint root and stats every session's manifest.
        """
        if self.obs.metrics:
            obs_instrument.record_serve_sessions(
                self.obs,
                resident=self.registry.resident,
                known=len(self.registry.known_sessions()),
            )
        return to_prometheus(self.obs.registry)

    async def drain(self) -> list[dict[str, Any]]:
        """Shed new work, finish admitted work, checkpoint every session."""
        drained = await self.registry.drain_all()
        self.registry.shutdown()
        return drained


class ResolutionServer:
    """TCP front end for a :class:`ServeApp`: JSON lines plus HTTP probes."""

    def __init__(
        self, app: ServeApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def __aenter__(self) -> "ResolutionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # readline's overrun: a line past MAX_LINE_BYTES.
                    await self._refuse_oversized(reader, writer, write_lock)
                    break
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith(b"GET ") or stripped.startswith(b"HEAD "):
                    await self._answer_http(stripped, reader, writer)
                    return
                # Pipelining: every request line gets its own task; the
                # write lock keeps response lines whole, the id echo lets
                # the client pair them back up out of order.
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            # A disconnect must never abandon admitted work: the session
            # actors finish regardless, we only stop writing responses.
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            # close() is fire-and-forget on purpose: awaiting wait_closed()
            # here can outlive the event loop at shutdown.
            writer.close()

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        await self._send(await self.app.handle_line(line), writer, write_lock)

    async def _refuse_oversized(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Answer a line too long to frame once, then read the connection
        to its end (bounded) so closing it sends no reset, which could
        discard the answer before the client reads it."""
        obs_instrument.record_serve_request(self.app.obs, "invalid", 0.0, "error")
        limit = MAX_LINE_BYTES // (1024 * 1024)
        response = error_response(
            None, "bad_request", f"request line exceeds the {limit} MiB limit"
        )
        await self._send(response, writer, write_lock)

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        with contextlib.suppress(asyncio.TimeoutError, ConnectionResetError):
            await asyncio.wait_for(discard(), _LINGER_SECONDS)

    async def _send(
        self,
        response: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _answer_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.0 for scrapers: /healthz and /metrics only."""
        try:
            while True:
                header = await reader.readline()
                if not header or header in (b"\r\n", b"\n"):
                    break
        except (ConnectionResetError, ValueError):  # ValueError: overrun
            pass
        parts = request_line.split()
        path = parts[1].decode("latin-1") if len(parts) >= 2 else "/"
        if path == "/healthz":
            payload = self.app.healthz()
            status = "200 OK" if payload["status"] == "ok" else "503 Service Unavailable"
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            content_type = "application/json"
        elif path == "/metrics":
            body = self.app.metrics_text().encode("utf-8")
            status = "200 OK"
            content_type = "text/plain; version=0.0.4"
        else:
            body = b"only /healthz and /metrics are served over HTTP\n"
            status = "404 Not Found"
            content_type = "text/plain"
        writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        writer.close()


async def run_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 0,
    shutdown: asyncio.Event | None = None,
    ready: "asyncio.Future | None" = None,
) -> list[dict[str, Any]]:
    """Serve until *shutdown* is set, then drain; returns drain records.

    The caller owns signal wiring (the CLI maps SIGTERM/SIGINT onto the
    event); tests set the event directly.
    """
    server = ResolutionServer(app, host=host, port=port)
    await server.start()
    if ready is not None and not ready.done():
        ready.set_result(server.port)
    event = shutdown or asyncio.Event()
    try:
        await event.wait()
        return await app.drain()
    finally:
        await server.stop()


__all__ = ["ResolutionServer", "ServeApp", "run_server"]
